"""Hypergraph model of an architecture and a multilevel partitioner.

Each producer vertex becomes one hyperedge spanning the producer and all
of its consumers, weighted by the bytes of the producer's output map, so
a feature map sent to several parts is charged once per extra part: the
objective is the connectivity metric  sum_j lam_j * (parts_touched_j - 1)
over all hyperedges.

``partition`` is self contained: greedy heavy-connectivity coarsening
(no coarse vertex outweighs an ideal part unless one fine vertex does),
three seeded initial assignments at the coarsest level, each rebalanced
and ranked feasible first, and Fiduccia-Mattheyses refinement
(single-vertex moves picked by exact gain, tentative chains with rollback
to the best prefix, at most 20 passes per level).  The balance cap is
hard: refinement never fills a part past it, and projection keeps part
weights, so a partition that fits stays within the cap.  Results are
deterministic for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .archmodel import ArchSpec
from .dagify import topological_order
from .rng import KEY_PARTITION, substream

_MAX_PASSES = 20
_START_PASSES = 4  # refinement passes given to each initial candidate
_MATCH_PIN_LIMIT = 8  # huge nets say little about affinity; skip them when matching

@dataclass(frozen=True)
class Hypergraph:
    n_vertices: int
    pins: Tuple[Tuple[int, ...], ...]
    weights: Tuple[int, ...]
    vertex_weights: Tuple[int, ...]
    order_hint: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if len(self.pins) != len(self.weights):
            raise ValueError("one weight per hyperedge required")
        for e in self.pins:
            if len(set(e)) != len(e):
                raise ValueError(f"duplicate pins in hyperedge {e}")
            for v in e:
                if not 0 <= v < self.n_vertices:
                    raise ValueError(f"pin out of range: {v}")

@dataclass(frozen=True)
class Partition:
    parts: Tuple[int, ...]
    n_parts: int
    eps: float
    lam: int
    imbalance: float
    best_effort: bool
    lam_history: Tuple[int, ...]

def build_hypergraph(arch: ArchSpec) -> Hypergraph:
    """One hyperedge per producing vertex, spanning it and its consumers."""
    dag = arch.dag
    succ = dag.successors()
    pins: List[Tuple[int, ...]] = []
    weights: List[int] = []
    for u in range(dag.n_vertices):
        if not succ[u]:
            continue
        pins.append(tuple([u] + sorted(succ[u])))
        weights.append(arch.per_edge_bytes[(u, succ[u][0])])
    order = topological_order(dag)
    hint = [0] * dag.n_vertices
    for pos, v in enumerate(order):
        hint[v] = pos
    return Hypergraph(
        n_vertices=dag.n_vertices,
        pins=tuple(pins),
        weights=tuple(weights),
        vertex_weights=tuple(arch.vertex_flops),
        order_hint=tuple(hint),
    )

def total_communication(h: Hypergraph, parts: Sequence[int]) -> int:
    """Connectivity metric: sum of lam_j * (distinct parts touched - 1)."""
    if len(parts) != h.n_vertices:
        raise ValueError("partition vector length mismatch")
    total = 0
    for pin, lam in zip(h.pins, h.weights):
        seen = {parts[v] for v in pin}
        total += lam * (len(seen) - 1)
    return total

def _loads(vw: Sequence[int], parts: Sequence[int], n_parts: int) -> List[int]:
    pw = [0] * n_parts
    for v, p in enumerate(parts):
        pw[p] += vw[v]
    return pw

def part_weights(h: Hypergraph, parts: Sequence[int], n_parts: int) -> List[int]:
    return _loads(h.vertex_weights, parts, n_parts)

def load_imbalance(h: Hypergraph, parts: Sequence[int], n_parts: int) -> float:
    """Heaviest part weight over the ideal share; 1.0 for zero total weight."""
    if len(parts) != h.n_vertices:
        raise ValueError("partition vector length mismatch")
    total = sum(h.vertex_weights)
    if total == 0:
        return 1.0
    return max(part_weights(h, parts, n_parts)) * n_parts / total

class _Level:
    """Mutable working copy of one coarsening level."""

    __slots__ = ("n", "pins", "lam", "vw", "hint", "fine_map", "ve")

    def __init__(self, n, pins, lam, vw, hint, fine_map=None):
        self.n = n
        self.pins = pins
        self.lam = lam
        self.vw = vw
        self.hint = hint
        self.fine_map = fine_map  # fine vertex -> coarse vertex, None at finest
        self.ve: List[List[int]] = [[] for _ in range(n)]  # vertex -> incident hyperedges
        for e, pin in enumerate(pins):
            for v in pin:
                self.ve[v].append(e)

def _match_level(level: _Level, weight_cap: float) -> Optional[_Level]:
    """Contract a greedy matching on shared hyperedge weight."""
    n, pins, lam, vw = level.n, level.pins, level.lam, level.vw
    ve = level.ve
    mate = [-1] * n
    order = sorted(range(n), key=lambda v: (-vw[v], v))
    matched = 0
    for v in order:
        if mate[v] != -1:
            continue
        shared: Dict[int, int] = {}
        for e in ve[v]:
            if len(pins[e]) > _MATCH_PIN_LIMIT:
                continue
            w_e = lam[e]
            for u in pins[e]:
                if u != v and mate[u] == -1:
                    shared[u] = shared.get(u, 0) + w_e
        best_u, best_s = -1, 0
        for u, s in sorted(shared.items()):
            if vw[v] + vw[u] > weight_cap:
                continue
            if s > best_s:
                best_u, best_s = u, s
        if best_u != -1:
            mate[v] = best_u
            mate[best_u] = v
            matched += 1
    if matched == 0:
        return None
    hint = level.hint
    coarse_of = [-1] * n
    chint: Optional[List[int]] = [] if hint else None
    next_id = 0
    for v in range(n):
        if coarse_of[v] != -1:
            continue
        coarse_of[v] = next_id
        if mate[v] > v:
            coarse_of[mate[v]] = next_id
        if chint is not None:
            chint.append(min(hint[v], hint[mate[v]]) if mate[v] > v else hint[v])
        next_id += 1
    cvw = [0] * next_id
    for v in range(n):
        cvw[coarse_of[v]] += vw[v]
    merged: Dict[Tuple[int, ...], int] = {}
    for pin, w_e in zip(pins, lam):
        cp = tuple(sorted({coarse_of[v] for v in pin}))
        if len(cp) <= 1:
            continue
        merged[cp] = merged.get(cp, 0) + w_e
    cpins = [list(p) for p in merged]
    clam = list(merged.values())
    return _Level(next_id, cpins, clam, cvw, chint, fine_map=coarse_of)

def _initial_contiguous(level: _Level, n_parts: int) -> List[int]:
    order = sorted(range(level.n), key=lambda v: (level.hint[v], v)) if level.hint else list(range(level.n))
    total = sum(level.vw)
    parts = [0] * level.n
    cum = 0
    part = 0
    for i, v in enumerate(order):
        remaining_vertices = level.n - i
        remaining_parts = n_parts - part
        if part < n_parts - 1:
            over = cum >= (part + 1) * total / n_parts
            must_advance = remaining_vertices <= remaining_parts - 1
            if (over and remaining_vertices > remaining_parts - 1) or must_advance:
                part += 1
        parts[v] = part
        cum += level.vw[v]
    return parts

def _initial_lpt(level: _Level, n_parts: int) -> List[int]:
    order = sorted(range(level.n), key=lambda v: (-level.vw[v], v))
    parts = [0] * level.n
    pw = [0] * n_parts
    for i, v in enumerate(order):
        if i < n_parts:
            parts[v] = i
            pw[i] += level.vw[v]
            continue
        dest = min(range(n_parts), key=lambda p: (pw[p], p))
        parts[v] = dest
        pw[dest] += level.vw[v]
    return parts

def _initial_random(level: _Level, n_parts: int, seed: int) -> List[int]:
    rng = substream(seed, KEY_PARTITION, 1)
    order = list(range(level.n))
    rng.shuffle(order)
    parts = [0] * level.n
    for i, v in enumerate(order):
        parts[v] = i % n_parts
    return parts

def _rebalance(level: _Level, parts: List[int], n_parts: int, cap: float) -> None:
    """Move vertices out of parts heavier than ``cap``, smallest connectivity
    loss first, into parts that stay within ``cap``; stops when every part
    fits or no such move is left.  Feasible parts only ever gain weight up
    to ``cap``, so each vertex moves at most once."""
    n, pins, lam, vw, ve = level.n, level.pins, level.lam, level.vw, level.ve
    pw = _loads(vw, parts, n_parts)
    if max(pw) <= cap:
        return
    psize = [0] * n_parts
    for p in parts:
        psize[p] += 1
    counts = [[0] * n_parts for _ in pins]
    for e, pin in enumerate(pins):
        for v in pin:
            counts[e][parts[v]] += 1
    while any(w > cap for w in pw):
        best = None
        for v in range(n):
            p = parts[v]
            if pw[p] <= cap or psize[p] == 1 or vw[v] == 0:
                continue
            for q in range(n_parts):
                if q == p or pw[q] + vw[v] > cap:
                    continue
                loss = sum(lam[e] * ((counts[e][q] == 0) - (counts[e][p] == 1)) for e in ve[v])
                if best is None or loss < best[0]:
                    best = (loss, v, q)
        if best is None:
            return
        _, v, q = best
        p = parts[v]
        for e in ve[v]:
            counts[e][p] -= 1
            counts[e][q] += 1
        parts[v] = q
        pw[p] -= vw[v]
        pw[q] += vw[v]
        psize[p] -= 1
        psize[q] += 1

_STALL_LIMIT = 10  # tentative moves allowed past the best prefix before a pass aborts
_OWN_PART = 1 << 63  # push entry of a vertex's own part, so min_push bounds real targets

def _refine(
    level: _Level, parts: List[int], n_parts: int, cap: float, max_passes: int = _MAX_PASSES
) -> Tuple[int, List[int]]:
    """FM passes until no pass improves; returns (lam, per-pass history).

    Move gains are kept as pull (edges where the vertex is alone in its
    part) minus push (edges absent from the target part); both update in
    O(1) per affected pin, which keeps a pass linear in total pin count.
    """
    n, pins, lam, vw = level.n, level.pins, level.lam, level.vw
    ve = level.ve
    counts = [[0] * n_parts for _ in pins]
    for e, pin in enumerate(pins):
        ce = counts[e]
        for v in pin:
            ce[parts[v]] += 1
    cur_lam = 0
    for e in range(len(pins)):
        cur_lam += lam[e] * (n_parts - counts[e].count(0) - 1)
    pw = [0] * n_parts
    psize = [0] * n_parts
    for v in range(n):
        pw[parts[v]] += vw[v]
        psize[parts[v]] += 1

    history = [cur_lam]
    neg_inf = -(1 << 62)

    for _ in range(max_passes):
        absent = [[t for t in range(n_parts) if not ce[t]] for ce in counts]
        pull = [0] * n
        push = [[0] * n_parts for _ in range(n)]
        for v in range(n):
            pv = parts[v]
            acc = 0
            pu = push[v]
            for e in ve[v]:
                w_e = lam[e]
                if counts[e][pv] == 1:
                    acc += w_e
                for t in absent[e]:
                    pu[t] += w_e
            pu[pv] = _OWN_PART
            pull[v] = acc
        # lower bound on each row's min push; stale-low is safe for pruning
        min_push = [min(push[v]) for v in range(n)]
        locked = bytearray(n)
        moves: List[Tuple[int, int, int]] = []
        pass_lam = cur_lam
        best_idx = -1
        best_lam = cur_lam
        since_best = 0
        while True:
            pick_v, pick_q, pick_g = -1, -1, neg_inf
            for v in range(n):
                if locked[v]:
                    continue
                if pull[v] - min_push[v] <= pick_g:
                    continue
                pv = parts[v]
                if psize[pv] == 1:
                    continue
                pu = push[v]
                w_v = vw[v]
                base = pull[v]
                mn = pu[0]
                for q in range(n_parts):
                    pq = pu[q]
                    if pq < mn:
                        mn = pq
                    if q == pv:
                        continue
                    g = base - pq
                    if g > pick_g and pw[q] + w_v <= cap:
                        pick_v, pick_q, pick_g = v, q, g
                min_push[v] = mn
            if pick_v == -1:
                break
            v, q = pick_v, pick_q
            p = parts[v]
            w_v = vw[v]
            for e in ve[v]:
                w_e = lam[e]
                ce = counts[e]
                cp_old = ce[p]
                cq_old = ce[q]
                if cp_old == 1:
                    pass_lam -= w_e
                if cq_old == 0:
                    pass_lam += w_e
                for u in pins[e]:
                    if u == v or locked[u]:
                        continue
                    pu_part = parts[u]
                    if pu_part == p and cp_old == 2:
                        pull[u] += w_e
                    elif pu_part == q and cq_old == 1:
                        pull[u] -= w_e
                    if cp_old == 1:
                        push[u][p] += w_e
                    if cq_old == 0:
                        row = push[u]
                        row[q] -= w_e
                        if row[q] < min_push[u]:
                            min_push[u] = row[q]
                ce[p] = cp_old - 1
                ce[q] = cq_old + 1
            parts[v] = q
            pw[p] -= w_v
            pw[q] += w_v
            psize[p] -= 1
            psize[q] += 1
            locked[v] = 1
            moves.append((v, p, q))
            if pass_lam < best_lam:
                best_lam = pass_lam
                best_idx = len(moves) - 1
                since_best = 0
            else:
                since_best += 1
                if since_best >= _STALL_LIMIT:
                    break
        if not moves:
            break
        for i in range(len(moves) - 1, best_idx, -1):
            v, p, q = moves[i]
            for e in ve[v]:
                ce = counts[e]
                ce[q] -= 1
                ce[p] += 1
            parts[v] = p
            pw[q] -= vw[v]
            pw[p] += vw[v]
            psize[q] -= 1
            psize[p] += 1
        if best_idx == -1:
            break
        cur_lam = best_lam
        history.append(cur_lam)
    return cur_lam, history

@lru_cache(maxsize=8)
def _coarsen(h: Hypergraph, n_parts: int) -> Tuple[_Level, ...]:
    """Coarsening hierarchy, finest level first.  It does not depend on the
    balance tolerance, so a sweep over tolerances builds it once; callers
    must not mutate the shared levels."""
    total_w = sum(h.vertex_weights)
    finest = _Level(
        h.n_vertices,
        [list(p) for p in h.pins],
        list(h.weights),
        list(h.vertex_weights),
        list(h.order_hint) if h.order_hint is not None else list(range(h.n_vertices)),
    )
    levels = [finest]
    floor = max(2 * n_parts, 12)
    # at most an ideal part's weight: below every cap, and the same for every tolerance
    coarse_cap = max(total_w / n_parts, float(max(h.vertex_weights, default=0)))
    while levels[-1].n > floor:
        nxt = _match_level(levels[-1], coarse_cap)
        if nxt is None or nxt.n >= levels[-1].n:
            break
        levels.append(nxt)
    return tuple(levels)

def partition(h: Hypergraph, n_parts: int, eps: float, seed: int = 0) -> Partition:
    """Split vertices into ``n_parts`` non-empty groups, minimizing the
    connectivity metric subject to max part weight <= eps * average.

    ``best_effort`` marks a result over the cap.  The heuristic meets the
    cap whenever greedy LPT packing of the vertices (heaviest first, each
    to the lightest part) does, so ``best_effort`` means that packing
    failed too, e.g. because one vertex is heavier than the cap; the best
    assignment found is then returned instead of failing.
    ``lam_history`` holds the connectivity after each refinement pass,
    starting at the coarsest level whose partition fits (the finest if
    none does), and never increases.
    """
    if n_parts < 2:
        raise ValueError(f"need at least two parts, got {n_parts}")
    if n_parts > h.n_vertices:
        raise ValueError(f"more parts ({n_parts}) than vertices ({h.n_vertices})")
    if eps < 1.0:
        raise ValueError(f"balance tolerance below 1: {eps}")

    total_w = sum(h.vertex_weights)
    cap = eps * total_w / n_parts
    cap_eff = max(cap, float(max(h.vertex_weights, default=0)))

    levels = _coarsen(h, n_parts)
    finest = levels[0]

    coarsest = levels[-1]
    candidates = [
        _initial_contiguous(coarsest, n_parts),
        _initial_lpt(coarsest, n_parts),
        _initial_random(coarsest, n_parts, seed),
    ]
    best_parts: Optional[List[int]] = None
    best_key = best_hist = None
    for cparts in candidates:
        _rebalance(coarsest, cparts, n_parts, cap_eff)
        lam_val, hist = _refine(coarsest, cparts, n_parts, cap_eff, max_passes=_START_PASSES)
        heaviest = max(_loads(coarsest.vw, cparts, n_parts))
        key = (heaviest > cap_eff, lam_val, heaviest)
        if best_key is None or key < best_key:
            best_key, best_parts, best_hist = key, cparts, hist
    assert best_parts is not None and best_hist is not None

    # Coarse vertices pack worse than fine ones.  A start still over the cap
    # is projected and rebalanced level by level until it fits, and
    # refinement (which never fills a part past the cap) starts there.
    parts = best_parts
    start = len(levels) - 1
    while start > 0 and max(_loads(levels[start].vw, parts, n_parts)) > cap_eff:
        parts = [parts[levels[start].fine_map[v]] for v in range(levels[start - 1].n)]
        start -= 1
        _rebalance(levels[start], parts, n_parts, cap_eff)
    if start == 0 and max(_loads(finest.vw, parts, n_parts)) > cap_eff:
        # greedy packing of the fine vertices is the fallback, so the result
        # fits whenever that packing does
        lpt = _initial_lpt(finest, n_parts)
        if max(_loads(finest.vw, lpt, n_parts)) <= cap_eff:
            parts = lpt

    history: List[int] = []
    for idx in range(start, -1, -1):
        if idx < start:
            coarse = levels[idx + 1]
            parts = [parts[coarse.fine_map[v]] for v in range(levels[idx].n)]
        elif idx == len(levels) - 1 and len(best_hist) <= _START_PASSES:
            # the start's own refinement ended on a pass without gain, and
            # the same pass from the same state would gain nothing again
            history.append(best_hist[-1])
            continue
        _, hist = _refine(levels[idx], parts, n_parts, cap_eff)
        history.extend(hist)

    lam_final = total_communication(h, parts)
    imbalance = load_imbalance(h, parts, n_parts)
    best_effort = total_w > 0 and imbalance > eps * (1 + 1e-12)
    return Partition(
        parts=tuple(parts),
        n_parts=n_parts,
        eps=eps,
        lam=lam_final,
        imbalance=imbalance,
        best_effort=best_effort,
        lam_history=tuple(history),
    )

def write_hmetis(h: Hypergraph, path: str | Path) -> None:
    """Text export: header, one weighted pin line per hyperedge
    (1-indexed), then one vertex weight per line."""
    lines = [f"{len(h.pins)} {h.n_vertices} 11"]
    for pin, w in zip(h.pins, h.weights):
        lines.append(" ".join([str(w)] + [str(v + 1) for v in pin]))
    for v in range(h.n_vertices):
        lines.append(str(h.vertex_weights[v]))
    Path(path).write_text("\n".join(lines) + "\n")

def write_partition(p: Partition, path: str | Path) -> None:
    doc = {
        "parts": list(p.parts),
        "n_parts": p.n_parts,
        "eps": p.eps,
        "lam": p.lam,
        "imbalance": p.imbalance,
        "best_effort": p.best_effort,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
