"""Seeded Monte-Carlo sweeps over generators, samples and unit counts.

A sweep draws one seed per sample index from the master seed, runs the
full pipeline (generate, orient, elaborate, score, place, simulate) for
every requested generator and unit count, and emits one row per
(generator, sample, units).  Workers share nothing; rows are merged by
task order, so the output does not depend on the worker count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from multiprocessing import Pool
from pathlib import Path
from statistics import mean, median
from typing import Dict, List, Sequence, Tuple

from .archmodel import ElaborationConfig, elaborate
from .dagify import orient
from .deploy import CostParams, balance_entropy, group_chains, place_greedy, simulate
from .randgraph import GeneratorConfig, check_field_types, generate
from .rng import sample_seed
from .score import DEFAULT_EPS_GRID, DEFAULT_WEIGHTS, check_settings, concurrency_score

DEFAULT_GENERATORS = ("er", "ba", "ws", "dp", "fb")
DEFAULT_UNITS = (4, 6, 8, 10)
# the fields that set each family's generator; each sets the parameter
# named after its family prefix, and fb stages share the ws lattice
FAMILY_FIELDS = {
    "er": ("er_p",),
    "ba": ("ba_m",),
    "ws": ("ws_k", "ws_p"),
    "dp": ("dp_p", "dp_alpha", "dp_beta"),
    "fb": ("ws_k", "ws_p", "fb_stages"),
}

@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; defaults match the reference experiment.

    Construction checks every field and builds each requested family's
    generator config once, so a bad value fails before any sample runs.
    A family's config that fails names the family and the fields that set
    it, spelled as the CLI flags that fill them.
    """

    generators: Tuple[str, ...] = DEFAULT_GENERATORS
    n_vertices: int = 40
    samples: int = 1000
    units: Tuple[int, ...] = DEFAULT_UNITS
    master_seed: int = 0
    er_p: float = 0.12
    ba_m: int = 3
    ws_k: int = 6
    ws_p: float = 0.75
    dp_p: float = 0.4
    dp_alpha: float = 2.0
    dp_beta: float = 2.0
    fb_stages: int = 3
    elaboration: ElaborationConfig = field(default_factory=ElaborationConfig)
    eps_grid: Tuple[float, ...] = DEFAULT_EPS_GRID
    weights: Tuple[float, float, float] = DEFAULT_WEIGHTS
    cost: CostParams = field(default_factory=CostParams)
    workers: int = 1

    def __post_init__(self):
        check_field_types(self)
        if not self.generators:
            raise ValueError("need at least one generator")
        for kind in self.generators:
            try:
                generator_config(self, kind, self.master_seed)
            except ValueError as exc:
                if kind not in FAMILY_FIELDS:
                    raise
                flags = [f"--{name.replace('_', '-')}={getattr(self, name)}" for name in FAMILY_FIELDS[kind]]
                raise ValueError(f"{kind} generator, set by {', '.join(flags)} and --n={self.n_vertices}: {exc}") from None
        if self.samples < 1 or self.workers < 1:
            raise ValueError(f"samples and workers must be at least 1, got {self.samples} and {self.workers}")
        # the DAG of an n-vertex graph has at least n + 2 vertices: blocks, input and output
        if not self.units or not 2 <= min(self.units) <= max(self.units) <= self.n_vertices + 2:
            raise ValueError(f"need unit counts from 2 to {self.n_vertices + 2}, the smallest DAG's vertex count, got {self.units}")
        check_settings(self.eps_grid, self.weights)

def generator_config(cfg: SweepConfig, kind: str, seed: int) -> GeneratorConfig:
    """The sweep's parameters for family ``kind``."""
    params = {name.split("_", 1)[1]: getattr(cfg, name) for name in FAMILY_FIELDS.get(kind, ())}
    return GeneratorConfig(kind=kind, n_vertices=cfg.n_vertices, seed=seed, **params)

def run_sample(cfg: SweepConfig, kind: str, index: int) -> List[Dict]:
    """All rows for one (generator, sample index) pair."""
    seed = sample_seed(cfg.master_seed, index)
    graph = generate(generator_config(cfg, kind, seed))
    dag = orient(graph)
    arch = elaborate(dag, cfg.elaboration, seed)
    params_greedy = elaborate(dag, replace(cfg.elaboration, staging="greedy"), seed).total_params
    gd = group_chains(arch)
    rows = []
    for n in cfg.units:
        report = concurrency_score(arch, n, cfg.eps_grid, cfg.weights, seed=seed)
        best = report.best
        placement = place_greedy(gd, n)
        sim = simulate(gd, placement, cfg.cost)
        rows.append(
            {
                "generator": kind,
                "sample": index,
                "seed": seed,
                "n_units": n,
                "edges": len(graph.edges),
                "dag_vertices": dag.n_vertices,
                "longest_path": dag.longest_path,
                "eta": report.eta,
                "u_c": report.u_c,
                "cs": report.best_cs,
                "cs_eps": best.eps,
                "lam": best.lam,
                "lam_norm": report.lam_norm(best),
                "imbalance": best.imbalance,
                "best_effort": int(best.best_effort),
                "makespan": sim.makespan,
                "speedup": sim.speedup_vs_single_unit,
                "entropy": balance_entropy(gd, placement),
                "params": arch.total_params,
                "params_greedy": params_greedy,
                "flops": arch.total_flops,
                "groups": len(gd.groups),
            }
        )
    return rows

def run_sweep(cfg: SweepConfig) -> List[Dict]:
    """Rows for the whole grid, ordered by (generator, sample, units)."""
    tasks = [(cfg, kind, i) for kind in cfg.generators for i in range(cfg.samples)]
    if cfg.workers > 1:
        with Pool(cfg.workers) as pool:
            chunks = pool.starmap(run_sample, tasks, chunksize=8)
    else:
        chunks = [run_sample(*t) for t in tasks]
    rows: List[Dict] = []
    for chunk in chunks:
        rows.extend(chunk)
    return rows

def summarize(rows: Sequence[Dict]) -> List[Dict]:
    """Per (generator, units) means and medians; latency is also reported
    normalized to the fb generator's mean at the same unit count."""
    keys = sorted({(r["generator"], r["n_units"]) for r in rows})
    fb_mean: Dict[int, float] = {}
    for gen, n in keys:
        if gen == "fb":
            fb_mean[n] = mean(r["makespan"] for r in rows if r["generator"] == "fb" and r["n_units"] == n)
    out = []
    for gen, n in keys:
        sub = [r for r in rows if r["generator"] == gen and r["n_units"] == n]
        lat = mean(r["makespan"] for r in sub)
        out.append(
            {
                "generator": gen,
                "n_units": n,
                "samples": len(sub),
                "mean_cs": mean(r["cs"] for r in sub),
                "median_cs": median(r["cs"] for r in sub),
                "mean_lam": mean(r["lam"] for r in sub),
                "mean_eta": mean(r["eta"] for r in sub),
                "mean_imbalance": mean(r["imbalance"] for r in sub),
                "mean_latency": lat,
                "latency_vs_fb": lat / fb_mean[n] if fb_mean.get(n) else float("nan"),
                "mean_speedup": mean(r["speedup"] for r in sub),
                "median_entropy": median(r["entropy"] for r in sub),
                "mean_params": mean(r["params"] for r in sub),
                "mean_params_greedy": mean(r["params_greedy"] for r in sub),
            }
        )
    return out

def write_rows_csv(rows: Sequence[Dict], path: str | Path) -> None:
    if not rows:
        Path(path).write_text("")
        return
    fields = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        for r in rows:
            w.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in r.items()})
