"""Output checks of the benchmark, computed independently of concnas.

Every checker returns a list of error strings; an empty list means the
output passed.  The checkers read only plain attributes of the results
(part vectors, pins, weights, flops, edges), so they recompute what the
program reports instead of calling the program again.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

# The program marks a result over its cap with this relative slack.
_CAP_SLACK = 1e-12
_REL = 1e-9


def connectivity(pins: Sequence[Sequence[int]], weights: Sequence[int], parts: Sequence[int]) -> int:
    """Sum over hyperedges of weight * (distinct parts touched - 1)."""
    return sum(w * (len({parts[v] for v in pin}) - 1) for pin, w in zip(pins, weights))


def heaviest_part(vertex_weights: Sequence[int], parts: Sequence[int], k: int) -> int:
    loads = [0] * k
    for v, p in enumerate(parts):
        loads[p] += vertex_weights[v]
    return max(loads)


def lpt_heaviest(vertex_weights: Sequence[int], k: int) -> int:
    """Heaviest part of greedy LPT packing: heaviest vertex first (ties by
    index), each onto the lightest part (ties by index)."""
    loads = [0] * k
    for v in sorted(range(len(vertex_weights)), key=lambda v: (-vertex_weights[v], v)):
        dest = min(range(k), key=lambda p: (loads[p], p))
        loads[dest] += vertex_weights[v]
    return max(loads)


def check_partition(h, k: int, eps: float, p) -> List[str]:
    """Exactly k non-empty parts, lam recounted, cap met unless best_effort,
    best_effort only where LPT packing misses the cap too, and lam_history
    never increasing."""
    errors = []
    parts = p.parts
    if len(parts) != h.n_vertices:
        return [f"partition k={k}: {len(parts)} labels for {h.n_vertices} vertices"]
    if set(parts) != set(range(k)):
        errors.append(f"partition k={k}: labels {sorted(set(parts))} are not exactly 0..{k - 1}")
        return errors
    lam = connectivity(h.pins, h.weights, parts)
    if lam != p.lam:
        errors.append(f"partition k={k}: reports lam {p.lam}, pins give {lam}")
    total = sum(h.vertex_weights)
    cap = eps * total / k * (1 + _CAP_SLACK)
    if p.best_effort:
        if lpt_heaviest(h.vertex_weights, k) <= cap:
            errors.append(f"partition k={k} eps={eps}: best_effort, but LPT packing meets the cap")
    elif heaviest_part(h.vertex_weights, parts, k) > cap:
        errors.append(f"partition k={k} eps={eps}: heaviest part over the cap without best_effort")
    hist = p.lam_history
    if any(b > a for a, b in zip(hist, hist[1:])):
        errors.append(f"partition k={k}: lam_history increases: {hist}")
    return errors


def cs_formula(imbalance: float, lam_norm: float, eta: float, weights: Tuple[float, float, float]) -> float:
    """Weighted geometric mean, in log form; 0 when lam_norm is 0."""
    if lam_norm == 0.0:
        return 0.0
    a, b, c = weights
    return math.exp((a * math.log(imbalance) + b * math.log(lam_norm) + c * math.log(eta)) / 3.0)


def check_row(row: Dict, eps_grid: Sequence[float], weights: Tuple[float, float, float]) -> List[str]:
    """One sweep row: CS, eta, cap and speedup recomputed from its fields."""
    errors = []
    where = f"row {row['generator']}/{row['sample']}/n={row['n_units']}"
    n = row["n_units"]
    cs = cs_formula(row["imbalance"], row["lam_norm"], row["eta"], weights)
    if not math.isclose(cs, row["cs"], rel_tol=_REL, abs_tol=0.0):
        errors.append(f"{where}: cs {row['cs']!r}, recomputed {cs!r}")
    eta = row["longest_path"] * n / row["dag_vertices"]
    if not math.isclose(eta, row["eta"], rel_tol=_REL):
        errors.append(f"{where}: eta {row['eta']!r}, recomputed {eta!r}")
    if row["cs_eps"] not in eps_grid:
        errors.append(f"{where}: cs_eps {row['cs_eps']} is not on the grid {tuple(eps_grid)}")
    if not row["best_effort"] and row["imbalance"] > row["cs_eps"] * (1 + _CAP_SLACK):
        errors.append(f"{where}: imbalance {row['imbalance']} over cs_eps {row['cs_eps']} without best_effort")
    if not 0.0 < row["speedup"] <= n * (1 + _REL):
        errors.append(f"{where}: speedup {row['speedup']} outside (0, {n}]")
    return errors


def check_rows_csv(rows: Sequence[Dict], path: Path, expected_keys: set) -> List[str]:
    """The file read back equals ``rows``, one row per (generator, sample, units)."""
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    errors = []
    if len(back) != len(rows):
        errors.append(f"{path.name}: {len(back)} rows read back, {len(rows)} written")
    for i, (r, b) in enumerate(zip(rows, back)):
        if list(b) != list(r):
            errors.append(f"{path.name} row {i}: columns {list(b)} differ from {list(r)}")
            break
        for key, value in r.items():
            text = b[key]
            same = float(text) == value if isinstance(value, float) else text == str(value)
            if not same:
                errors.append(f"{path.name} row {i}: {key} reads {text!r}, wrote {value!r}")
    keys = [(r["generator"], r["sample"], r["n_units"]) for r in rows]
    if len(set(keys)) != len(keys) or set(keys) != expected_keys:
        errors.append(f"{path.name}: rows are not one per (generator, sample, units)")
    return errors


def critical_path(n_vertices: int, edges: Sequence[Tuple[int, int]], cost: Sequence[float]) -> float:
    """Heaviest path by vertex cost, over a Kahn order of ``edges``."""
    succ: List[List[int]] = [[] for _ in range(n_vertices)]
    indeg = [0] * n_vertices
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    finish = list(cost)
    ready = [v for v in range(n_vertices) if indeg[v] == 0]
    while ready:
        u = ready.pop()
        for v in succ[u]:
            finish[v] = max(finish[v], finish[u] + cost[v])
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return max(finish, default=0.0)


def check_simulation(arch, n_units: int, sim, cost) -> List[str]:
    """Makespan bounds and busy time of one simulation of ``arch``."""
    errors = []
    compute = [f / cost.flops_per_time for f in arch.vertex_flops]
    total = sum(compute)
    cp = critical_path(arch.dag.n_vertices, arch.dag.edges, compute)
    lower = max(cp, total / n_units)
    upper = total + sim.transfers * cost.link_latency + sim.bytes_moved / cost.bytes_per_time
    m = sim.makespan
    if n_units == 1 and not math.isclose(m, total, rel_tol=_REL):
        errors.append(f"simulate n=1: makespan {m!r} differs from total compute {total!r}")
    if m < lower * (1 - _REL):
        errors.append(f"simulate n={n_units}: makespan {m!r} below max(critical path, total/n) {lower!r}")
    if m > upper * (1 + _REL):
        errors.append(f"simulate n={n_units}: makespan {m!r} above compute plus transfers {upper!r}")
    busy = sum(sim.unit_busy)
    if not math.isclose(busy, total, rel_tol=_REL):
        errors.append(f"simulate n={n_units}: unit busy time {busy!r} differs from total compute {total!r}")
    return errors
