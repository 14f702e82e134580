"""Hypergraph model of an architecture and a multilevel partitioner.

Each producer vertex becomes one hyperedge spanning the producer and all
of its consumers, weighted by the bytes of the producer's output map, so
a feature map sent to several parts is charged once per extra part: the
objective is the connectivity metric  sum_j lam_j * (parts_touched_j - 1)
over all hyperedges.

``partition`` is self contained: greedy coarsening on a heavy-edge rating
to which every hyperedge e adds ``w(e) / (|e| - 1)`` per pair of its pins,
as in PaToH and KaHyPar (no coarse vertex outweighs an ideal part unless
one fine vertex does), then a two-hop pass that pairs the vertices left
unmatched which share their best-rated neighbour, as METIS does (LaSalle
et al. 2015), so the leaves of one hub halve at each level;
three seeded initial assignments at the coarsest level, each rebalanced
and ranked feasible first, then by connectivity, and Fiduccia-Mattheyses
refinement (single-vertex moves picked by exact gain, tentative chains
with rollback to the best prefix, at most 20 passes per level).  Starts
are refined before the ranking only on a hypergraph that does not
coarsen; otherwise they are ranked as rebalanced, and the winner's
refinement is the coarsest level's own, since the refinement at each
finer level does the real work (Karypis et al. 1999).  The balance cap is
hard: refinement never fills a part past it, and projection keeps part
weights, so a partition that fits stays within the cap.  Vertex weights
are non-negative integers, and ``partition`` computes the cap once, as
an integer, for every move and test to read.  Refinement prunes each
move's scan with a bound on the gain over only the parts a vertex fits
in.  Results are deterministic for a fixed seed.

Coarsening levels are cached per hypergraph, and a level is shared by
every part count whose weight cap lies in the interval over which its
matching's weight tests agree.  A level's partition is one state,
``_Gains``: parts, part weights and sizes, FM's pin counts, push and
pull tables, and the connectivity.  A numpy kernel builds it for each
start and each projection to a finer level, exactly in float64 while the
total hyperedge weight is below 2**53.  ``_move`` keeps every field
exact after every move, rebalancing, refining or undoing a pass's tail,
with no stale rows: other rows on critical counts only, the mover's own
row in O(1).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import mul
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .archmodel import ArchSpec
from .randgraph import check_field_types
from .rng import KEY_PARTITION, substream

_MAX_PASSES = 20
_START_PASSES = 4  # passes given to each start before ranking, on a hypergraph that does not coarsen

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
        if len(self.vertex_weights) != self.n_vertices:
            raise ValueError("one weight per vertex required")
        if self.order_hint is not None and len(self.order_hint) != self.n_vertices:
            raise ValueError("one order hint per vertex required")
        # the partitioner computes its integer cap from the vertex-weight
        # total, and sums hyperedge weights, in float64, exact only below 2**53
        check_field_types(self)
        for kind, ws in (("vertex", self.vertex_weights), ("hyperedge", self.weights)):
            if min(ws, default=0) < 0:
                raise ValueError(f"{kind} weight is not a non-negative integer: {min(ws)}")
            if sum(ws) >= 1 << 53:
                raise ValueError(f"total {kind} weight must be below 2**53, got {sum(ws)}")
        for e in self.pins:
            if not e:
                raise ValueError("empty hyperedge: it would count as touching -1 parts")
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
    succ = dag.successors
    pins: List[Tuple[int, ...]] = []
    weights: List[int] = []
    for u in range(dag.n_vertices):
        if not succ[u]:
            continue
        pins.append(tuple([u] + sorted(succ[u])))
        weights.append(arch.out_bytes[u])
    hint = [0] * dag.n_vertices
    for pos, v in enumerate(dag.order):
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
    """Weight of each part; every vertex needs a part id in ``[0, n_parts)``."""
    if len(parts) != h.n_vertices:
        raise ValueError("partition vector length mismatch")
    if h.n_vertices and not 0 <= min(parts) <= max(parts) < n_parts:
        raise ValueError(f"part ids must lie in [0, {n_parts}), got {min(parts)} to {max(parts)}")
    return _loads(h.vertex_weights, parts, n_parts)

def load_imbalance(h: Hypergraph, parts: Sequence[int], n_parts: int) -> float:
    """Heaviest part weight over the ideal share; 1.0 for zero total weight."""
    pw = part_weights(h, parts, n_parts)
    total = sum(pw)
    if total == 0:
        return 1.0
    return max(pw) * n_parts / total

class _Level:
    """One coarsening level, shared between calls: read only, apart from
    ``children``, which ``_hierarchy`` extends."""

    __slots__ = ("n", "pins", "lam", "vw", "hint", "fine_map", "ve", "incidence", "by_weight", "sorted_w", "children")

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
        self.incidence = np.zeros((len(pins), n), dtype=np.uint8)  # hyperedge x vertex, 1 for a pin
        self.incidence[np.repeat(np.arange(len(pins)), list(map(len, pins))), list(chain.from_iterable(pins))] = 1
        self.by_weight = sorted(range(n), key=lambda v: vw[v])  # for bisect on sorted_w
        self.sorted_w = [vw[v] for v in self.by_weight]
        # (lo, hi, contraction): the next level for every weight cap in [lo, hi), None if nothing matches
        self.children: List[Tuple[float, float, Optional[_Level]]] = []

def _match_level(level: _Level, weight_cap: int) -> Tuple[Optional[_Level], float, float]:
    """Contract a greedy matching on the rating that every net e, of any
    size, adds to each pair of its pins, ``lam[e] / (|e| - 1)``, extended
    by two-hop pairs: vertices left unmatched that share a hub.

    Returns the contraction (None if no pair matches) and the interval
    ``[lo, hi)`` of weight caps under which every pair-weight test made
    here comes out the same, so any cap in it gives the same contraction.
    """
    n, pins, lam, vw, ve = level.n, level.pins, level.lam, level.vw, level.ve
    rate = [w_e / max(len(pin) - 1, 1) for pin, w_e in zip(pins, lam)]  # a one-pin net's rating is never read
    mate = [-1] * n
    order = sorted(range(n), key=lambda v: (-vw[v], v))
    matched = 0
    lo, hi = -math.inf, math.inf
    # the rating of v with each neighbour, matched or not, summed in ve[v]
    # order; the two-hop pass reads it, as the greedy pass visits every
    # vertex that it leaves unmatched
    shared_of: List[Dict[int, float]] = [{} for _ in range(n)]
    for v in order:
        if mate[v] != -1:
            continue
        shared = shared_of[v]
        for e in ve[v]:
            r_e = rate[e]
            for u in pins[e]:
                if u != v:
                    shared[u] = shared.get(u, 0) + r_e
        # the unmatched neighbour within the cap with the highest rating, ties to the lowest id
        w_v = vw[v]
        best_u, best_s = -1, 0
        for u, s in shared.items():
            if mate[u] != -1:
                continue
            pair = w_v + vw[u]
            if pair > weight_cap:
                hi = min(hi, pair)
                continue
            lo = max(lo, pair)
            if s > best_s or (s == best_s and u < best_u):
                best_u, best_s = u, s
        if best_u != -1:
            mate[v], mate[best_u] = best_u, v
            matched += 1
    # two-hop: each vertex still unmatched joins the list of its hub, the
    # neighbour (matched or not) with the highest rating, ties to the
    # lowest id; consecutive list members pair within the cap
    hubs: Dict[int, List[int]] = {}
    for v in order:
        shared = shared_of[v]
        if mate[v] == -1 and shared:
            hubs.setdefault(min(shared, key=lambda u: (-shared[u], u)), []).append(v)
    for members in hubs.values():
        prev = -1
        for v in members:
            if prev == -1:
                prev = v
                continue
            pair = vw[prev] + vw[v]
            if pair > weight_cap:
                hi = min(hi, pair)
                prev = v
            else:
                lo = max(lo, pair)
                mate[prev], mate[v] = v, prev
                matched += 1
                prev = -1
    if matched == 0:
        return None, lo, hi
    hint = level.hint
    coarse_of = [-1] * n
    chint: List[int] = []
    next_id = 0
    for v in range(n):
        if coarse_of[v] != -1:
            continue
        coarse_of[v] = next_id
        if mate[v] > v:
            coarse_of[mate[v]] = next_id
        chint.append(min(hint[v], hint[mate[v]]) if mate[v] > v else hint[v])
        next_id += 1
    cvw = [0] * next_id
    for v in range(n):
        cvw[coarse_of[v]] += vw[v]
    merged: Dict[Tuple[int, ...], int] = {}
    for pin, w_e in zip(pins, lam):
        cp = tuple(sorted(set(map(coarse_of.__getitem__, pin))))
        if len(cp) <= 1:
            continue
        merged[cp] = merged.get(cp, 0) + w_e
    cpins = [list(p) for p in merged]
    clam = list(merged.values())
    return _Level(next_id, cpins, clam, cvw, chint, fine_map=coarse_of), lo, hi

def _initial_contiguous(level: _Level, n_parts: int) -> List[int]:
    order = sorted(range(level.n), key=lambda v: (level.hint[v], v))
    total = sum(level.vw)
    parts = [0] * level.n
    cum = 0
    part = 0
    for i, v in enumerate(order):
        # advance once this part holds its share, or when each part left needs one of the vertices left
        if part < n_parts - 1 and (cum >= (part + 1) * total / n_parts or level.n - i < n_parts - part):
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

_STALL_LIMIT = 10  # tentative moves allowed past the best prefix before a pass aborts
_OWN_PART = 1 << 63  # push entry of a vertex's own part, so min_push bounds real targets

class _Gains:
    """One partition of a level and its gain state, all exact: ``parts``
    (held, not copied); ``pw`` and ``psize``, each part's weight and
    vertex count; ``counts[e][t]``, the pins of hyperedge e in part t;
    ``push[v][t]``, the weight of v's hyperedges with no pin in part t
    (``_OWN_PART`` on v's own part); ``pull[v]``, the weight of v's
    hyperedges where v is its part's only pin; ``lam``, the connectivity.

    Built by matrix products over the level's incidence matrix, widened
    to float64 per build: every partial sum is a pin count or a sum of
    distinct hyperedge weights, an integer below 2**53, so exact.
    """

    __slots__ = ("parts", "pw", "psize", "counts", "push", "pull", "lam")

    def __init__(self, level: _Level, parts: List[int], n_parts: int):
        inc = level.incidence.astype(np.float64)
        lam = np.array(level.lam, dtype=np.float64)[:, None]
        in_part = np.eye(n_parts).take(parts, axis=0)  # vertex x part, 1 for its own part
        counts = inc @ in_part
        absent = counts == 0
        self.push = push = (inc.T @ (lam * absent)).astype(np.int64).tolist()
        for row, p in zip(push, parts):
            row[p] = _OWN_PART
        self.parts = parts
        self.pw = _loads(level.vw, parts, n_parts)
        self.psize = list(map(parts.count, range(n_parts)))
        self.counts = counts.astype(np.int64).tolist()
        self.pull = ((inc.T @ (lam * (counts == 1))) * in_part).sum(axis=1).astype(np.int64).tolist()
        self.lam = (n_parts - 1) * sum(level.lam) - sum(map(mul, level.lam, absent.sum(axis=1).tolist()))

def _move(level: _Level, g: _Gains, v: int, q: int, min_push=None, q_room=-1) -> None:
    """Move v to part q and keep every field of ``g`` exact, the push
    rows and pulls of every vertex included.  The rows of other vertices
    change only on hyperedges where a count crosses a critical value
    (Fiduccia & Mattheyses): the source count falls to 1 or 0, or the
    target count rises from 0 or 1.  v's own row is set from its values
    before the move: its push into p becomes its pull, its pull its push
    into q, and its pushes into other parts stand, as those counts do not
    change.  A push into q that drops lowers ``min_push`` of a vertex
    weighing at most ``q_room``; the default -1 fits none."""
    pins, lam, vw = level.pins, level.lam, level.vw
    parts, pw, psize, counts, push, pull = g.parts, g.pw, g.psize, g.counts, g.push, g.pull
    p = parts[v]
    row_v, pull_v = push[v], pull[v]
    push_vq = row_v[q]
    parts[v] = q
    pw[p] -= vw[v]
    pw[q] += vw[v]
    psize[p] -= 1
    psize[q] += 1
    delta = 0
    for e in level.ve[v]:
        ce = counts[e]
        cp_old = ce[p]
        cq_old = ce[q]
        ce[p] = cp_old - 1
        ce[q] = cq_old + 1
        if cp_old > 2 and cq_old > 1:
            continue
        w_e = lam[e]
        if cp_old == 1:
            delta -= w_e
            for u in pins[e]:
                push[u][p] += w_e
        elif cp_old == 2:
            for u in pins[e]:
                if parts[u] == p:
                    pull[u] += w_e
                    break
        if cq_old == 0:
            delta += w_e
            for u in pins[e]:
                row = push[u]
                row[q] -= w_e
                if vw[u] <= q_room and row[q] < min_push[u]:
                    min_push[u] = row[q]
        elif cq_old == 1:
            for u in pins[e]:
                if u != v and parts[u] == q:
                    pull[u] -= w_e
                    break
    row_v[p], row_v[q], pull[v] = pull_v, _OWN_PART, push_vq
    g.lam += delta

def _rebalance(level: _Level, g: _Gains, cap: int) -> None:
    """Move vertices out of parts heavier than ``cap``, least connectivity
    loss ``push[v][q] - pull[v]`` first (ties to the lowest vertex, then
    part), into parts that stay within ``cap``, until every part fits or
    no such move is left.  Each move goes through ``_move``, so ``g``
    stays exact for ``_refine`` to start from.  Feasible parts only gain
    weight up to ``cap``, so each vertex moves at most once."""
    n, vw = level.n, level.vw
    parts, pw, psize, push, pull = g.parts, g.pw, g.psize, g.push, g.pull
    n_parts = len(pw)
    while max(pw) > cap:
        best = None
        for v in range(n):
            p = parts[v]
            if pw[p] <= cap or psize[p] == 1 or vw[v] == 0:
                continue
            pu = push[v]
            for q in range(n_parts):
                # p itself never fits, as it is over the cap
                if pw[q] + vw[v] <= cap and (best is None or pu[q] - pull[v] < best[0]):
                    best = (pu[q] - pull[v], v, q)
        if best is None:
            break
        _, v, q = best
        _move(level, g, v, q)

def _refine(level: _Level, g: _Gains, cap: int, max_passes: int = _MAX_PASSES) -> List[int]:
    """FM passes on ``g`` until no pass improves; returns the connectivity
    before the first pass and after each pass that gained, so its last
    entry is ``g.lam`` on return.

    Move gains are pull (edges where the vertex is alone in its part)
    minus push (edges absent from the target part), read from ``g``.
    ``_move`` keeps ``g`` exact through every pass, the moves past the
    best prefix included, which it undoes in reverse order, so on return
    ``g`` is the exact state of its refined partition.

    Each move takes the highest gain among targets within the cap, ties
    to the lowest vertex and then the lowest part.  A vertex is scanned
    only if ``pull - min_push`` could beat the best gain so far, where
    ``min_push`` is a lower bound on its push over the parts it fits in.
    A scan sets the bound exactly; a move lowers it where the true
    minimum can fall: a push into the destination drops, or the lighter
    source now admits vertices it barred (found by weight with
    ``bisect``).
    """
    n, vw = level.n, level.vw
    by_weight, sorted_w = level.by_weight, level.sorted_w
    max_w = sorted_w[-1]
    parts, pw, psize, push, pull = g.parts, g.pw, g.psize, g.push, g.pull
    n_parts = len(pw)
    history = [g.lam]
    neg_inf = -(1 << 62)

    for _ in range(max_passes):
        # lower bound on each row's min push over the parts that vertex fits
        # in; stale-low is safe for pruning
        min_push = list(map(min, push))
        free = list(range(n))  # vertices not yet moved in this pass, ascending
        moves: List[Tuple[int, int]] = []
        best_idx = -1
        best_lam = g.lam
        since_best = 0
        while True:
            pick_v, pick_q, pick_g = -1, -1, neg_inf
            for v in free:
                if pull[v] - min_push[v] <= pick_g:
                    continue
                if psize[parts[v]] == 1:
                    continue
                pu = push[v]
                room = cap - vw[v]
                mn, mq = _OWN_PART, -1
                for q in range(n_parts):
                    pq = pu[q]
                    if pq < mn and pw[q] <= room:
                        mn, mq = pq, q
                min_push[v] = mn
                gain = pull[v] - mn
                if gain > pick_g:
                    pick_v, pick_q, pick_g = v, mq, gain
            if pick_v == -1:
                break
            v, q = pick_v, pick_q
            free.remove(v)
            p = parts[v]
            w_v = vw[v]
            p_room = cap - pw[p]
            q_room = cap - pw[q] - w_v  # heaviest vertex that fits in q after the move
            _move(level, g, v, q, min_push, q_room)
            if max_w > p_room:
                # vertices weighing (p_room, p_room + w_v] fit in p only now
                for u in by_weight[bisect_right(sorted_w, p_room):bisect_right(sorted_w, p_room + w_v)]:
                    if push[u][p] < min_push[u]:
                        min_push[u] = push[u][p]
            moves.append((v, p))
            if g.lam < best_lam:
                best_lam = g.lam
                best_idx = len(moves) - 1
                since_best = 0
            else:
                since_best += 1
                if since_best >= _STALL_LIMIT:
                    break
        for v, p in reversed(moves[best_idx + 1:]):
            _move(level, g, v, p)
        if best_idx == -1:
            break
        history.append(g.lam)
    return history

@lru_cache(maxsize=8)
def _coarsen(h: Hypergraph) -> _Level:
    """The finest level of ``h``, root of every coarsening hierarchy of it.

    Coarser levels hang below it as each level's ``children``, each with
    the interval ``[lo, hi)`` of weight caps it serves; ``_hierarchy``
    adds them.  So this cache, keyed by the hypergraph, owns every level
    built for ``h``, and clearing it drops them all.
    """
    return _Level(
        h.n_vertices,
        [list(p) for p in h.pins],
        list(h.weights),
        list(h.vertex_weights),
        list(h.order_hint) if h.order_hint is not None else list(range(h.n_vertices)),
    )

def _hierarchy(h: Hypergraph, n_parts: int, coarse_cap: int) -> List[_Level]:
    """Coarsening hierarchy for ``n_parts``, finest level first, where no
    coarse vertex outweighs ``coarse_cap`` unless one fine vertex does.

    The contraction of a level depends on the part count only through
    ``coarse_cap``, so a level built for one part count is reused for any
    other whose cap falls in the child's interval.  Callers must not
    mutate the levels.
    """
    level = _coarsen(h)
    levels = [level]
    floor = max(2 * n_parts, 12)
    while level.n > floor:
        for lo, hi, child in level.children:
            if lo <= coarse_cap < hi:
                break
        else:
            child, lo, hi = _match_level(level, coarse_cap)
            level.children.append((lo, hi, child))
        if child is None:
            break
        levels.append(child)
        level = child
    return levels

def check_tolerance(eps: float) -> None:
    """Reject a balance tolerance that is not finite and at least 1."""
    if not 1.0 <= eps < math.inf:
        raise ValueError(f"balance tolerance must be finite and at least 1, got {eps}")

def check_part_count(n_parts: int, n_vertices: int) -> None:
    """Reject a part count outside 2 to the vertex count."""
    if not 2 <= n_parts <= n_vertices:
        raise ValueError(f"part count must be between 2 and {n_vertices} (the vertex count), got {n_parts}")

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
    none does), and never increases; ``lam`` is its last entry.
    """
    check_part_count(n_parts, h.n_vertices)
    check_tolerance(eps)

    total_w = sum(h.vertex_weights)
    max_vw = max(h.vertex_weights, default=0)
    # part weights are integers, so the cap is one; held to the total, which
    # admits every move, it is finite for every finite tolerance
    cap = max(math.floor(min(eps * total_w / n_parts, total_w)), max_vw)
    # coarse vertices weigh at most an ideal part: the same for every tolerance
    levels = _hierarchy(h, n_parts, max(total_w // n_parts, max_vw))
    coarsest = levels[-1]
    candidates = [
        _initial_contiguous(coarsest, n_parts),
        _initial_lpt(coarsest, n_parts),
        _initial_random(coarsest, n_parts, seed),
    ]
    starts = []
    for cparts in candidates:
        g = _Gains(coarsest, cparts, n_parts)
        _rebalance(coarsest, g, cap)
        if len(levels) == 1:
            # no finer level follows to do the real work, so each start is
            # refined before the ranking; otherwise it is ranked as rebalanced
            _refine(coarsest, g, cap, max_passes=_START_PASSES)
        heaviest = max(g.pw)
        starts.append(((heaviest > cap, g.lam, heaviest), g))
    # feasible first, then the least connectivity, ties to the earlier start
    _, g = min(starts, key=lambda start: start[0])

    # One walk, coarsest level first.  Coarse vertices pack worse than fine
    # ones, so until a level fits, its projection is rebalanced and skipped
    # if still over the cap; the finest falls back to greedy packing, so the
    # result fits whenever that packing does.  Refinement never breaks a fit.
    history: List[int] = []
    for idx in range(len(levels) - 1, -1, -1):
        level = levels[idx]
        if level is not coarsest:
            g = _Gains(level, [g.parts[c] for c in levels[idx + 1].fine_map], n_parts)
            if not history:
                _rebalance(level, g, cap)
        if not history and max(g.pw) > cap:
            if idx:
                continue
            lpt = _initial_lpt(level, n_parts)
            if max(_loads(level.vw, lpt, n_parts)) <= cap:
                g = _Gains(level, lpt, n_parts)
        history.extend(_refine(level, g, cap))

    imbalance = load_imbalance(h, g.parts, n_parts)
    # load_imbalance is 1.0 at zero total weight, never over a tolerance
    best_effort = imbalance > eps * (1 + 1e-12)
    return Partition(tuple(g.parts), n_parts, eps, g.lam, imbalance, best_effort, tuple(history))

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
