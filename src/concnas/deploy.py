"""Placement of an architecture onto compute units and latency simulation.

Pipeline: contract unbranched chains into groups, place groups onto
units largest-first onto the least-loaded unit, measure balance with a
normalized Shannon entropy, then replay execution with a discrete-event
simulation.  The network input is replicated on every unit (a scatter),
so its fan-out costs nothing; the final gather of sink outputs onto the
merge unit is simulated and included in the makespan by default.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .archmodel import ArchSpec
from .randgraph import check_field_types

COMMON_UNIT = -1  # pseudo unit: data replicated everywhere
MAX_UNITS = 10**6  # most units simulate takes: SimResult.unit_busy keeps one float per unit

@dataclass(frozen=True)
class CostParams:
    """Uniform unit and link model.

    Defaults move one full-size input feature map (65536 bytes) in half
    a time unit while an average full-size block computes in about one,
    so links are fast but not free and the gather step stays visible.
    """

    flops_per_time: float = 400_000.0
    bytes_per_time: float = 131_072.0
    link_latency: float = 0.05
    include_gather: bool = True

    def __post_init__(self):
        check_field_types(self)
        if not 0 < self.flops_per_time < math.inf:
            raise ValueError(f"flops_per_time must be finite and positive, got {self.flops_per_time}")
        # an infinite bandwidth is legal: transfers then cost latency only
        if not self.bytes_per_time > 0:
            raise ValueError(f"bytes_per_time must be positive, got {self.bytes_per_time}")
        if not 0 <= self.link_latency < math.inf:
            raise ValueError(f"link_latency must be finite and non-negative, got {self.link_latency}")

@dataclass(frozen=True)
class GroupedDag:
    """Chain contraction of an architecture DAG.

    Groups partition the vertices; every group is a directed path.  Edge
    (v, w) joins its endpoints into one group exactly when v has
    out-degree 1 and w in-degree 1; the synthetic input and output stay
    alone.
    """

    arch: ArchSpec
    groups: Tuple[Tuple[int, ...], ...]
    group_of: Tuple[int, ...]
    group_weights: Tuple[int, ...]
    group_edges: Tuple[Tuple[int, int, int], ...]
    input_group: int
    output_group: int

    @cached_property
    def _lpt_order(self) -> Tuple[int, ...]:
        """Groups to place, heaviest first, ties to the lowest id; the
        input and output groups are placed by rule."""
        w = self.group_weights
        terminal = (self.input_group, self.output_group)
        return tuple(sorted((g for g in range(len(self.groups)) if g not in terminal), key=lambda g: (-w[g], g)))

    @cached_property
    def _sim_plan(self) -> Tuple[tuple, Tuple[int, ...], Tuple[int, ...]]:
        """Static schedule inputs, derived from ``arch`` alone: per vertex
        its (successor, output bytes) pairs in edge order, its predecessor
        count, and its ready-queue key ``depth * n + v``, which orders
        like ``(depth, v)``."""
        dag = self.arch.dag
        n = dag.n_vertices
        nbytes = self.arch.out_bytes
        succ = tuple(tuple((w, nbytes[u]) for w in ws) for u, ws in enumerate(dag.successors))
        keys = tuple(d * n + v for v, d in enumerate(dag.depths))
        return succ, tuple(map(len, dag.predecessors)), keys

@dataclass(frozen=True)
class Placement:
    unit_of_group: Tuple[int, ...]
    n_units: int
    merge_unit: int
    dedicated_merge_unit: bool

@dataclass(frozen=True)
class SimResult:
    """``unit_busy`` holds one busy time per unit, ``n_units`` of them plus
    the dedicated merge unit if there is one, idle units included."""

    makespan: float
    speedup_vs_single_unit: float
    unit_busy: Tuple[float, ...]
    transfers: int
    bytes_moved: int
    trace: Tuple[tuple, ...] = field(repr=False, default=())

def group_chains(arch: ArchSpec) -> GroupedDag:
    """Contract every out-degree-1 to in-degree-1 edge, to a fixpoint."""
    dag = arch.dag
    succ = dag.successors
    pred = dag.predecessors
    special = {dag.input_vertex, dag.output_vertex}
    nxt: Dict[int, int] = {}
    prv: Dict[int, int] = {}
    for v in range(dag.n_vertices):
        if v in special or len(succ[v]) != 1:
            continue
        w = succ[v][0]
        if w in special or len(pred[w]) != 1:
            continue
        nxt[v] = w
        prv[w] = v
    group_of = [-1] * dag.n_vertices
    groups: List[Tuple[int, ...]] = []
    for v in range(dag.n_vertices):
        if v in prv or group_of[v] != -1:
            continue
        chain = [v]
        while chain[-1] in nxt:
            chain.append(nxt[chain[-1]])
        gid = len(groups)
        groups.append(tuple(chain))
        for u in chain:
            group_of[u] = gid
    weights = tuple(sum(arch.vertex_flops[u] for u in g) for g in groups)
    agg: Dict[Tuple[int, int], int] = {}
    for u, v in dag.edges:
        gu, gv = group_of[u], group_of[v]
        if gu != gv:
            agg[(gu, gv)] = agg.get((gu, gv), 0) + arch.out_bytes[u]
    edges = tuple((gu, gv, b) for (gu, gv), b in sorted(agg.items()))
    return GroupedDag(
        arch=arch,
        groups=tuple(groups),
        group_of=tuple(group_of),
        group_weights=weights,
        group_edges=edges,
        input_group=group_of[dag.input_vertex],
        output_group=group_of[dag.output_vertex],
    )

def place_greedy(gd: GroupedDag, n_units: int, dedicated_merge_unit: bool = False) -> Placement:
    """Largest-weight-first onto the least-loaded unit, ties to the
    lowest index.  The input group is replicated (scatter); the output
    group lands on the merge unit, unit 0 unless a dedicated one is
    requested."""
    if n_units < 1:
        raise ValueError(f"need at least one unit, got {n_units}")
    merge_unit = n_units if dedicated_merge_unit else 0
    unit_of = [0] * len(gd.groups)
    # a heap: least load, then lowest unit; units past the groups to place
    # would only tie at load 0 behind a lower index, so they are left out
    loads = [(0, u) for u in range(max(1, min(n_units, len(gd._lpt_order))))]
    for g in gd._lpt_order:
        load, dest = loads[0]
        unit_of[g] = dest
        heapq.heapreplace(loads, (load + gd.group_weights[g], dest))
    unit_of[gd.input_group] = COMMON_UNIT
    unit_of[gd.output_group] = merge_unit
    return Placement(
        unit_of_group=tuple(unit_of),
        n_units=n_units,
        merge_unit=merge_unit,
        dedicated_merge_unit=dedicated_merge_unit,
    )

def balance_entropy(gd: GroupedDag, placement: Placement) -> float:
    """Normalized Shannon entropy of per-unit compute load in [0, 1].

    1.0 means perfectly even; zero-weight terms contribute nothing; a
    zero total load counts as balanced.
    """
    n = placement.n_units
    if n < 1:
        raise ValueError(f"need at least one unit, got {n}")
    if n == 1:
        return 1.0
    load: Dict[int, int] = {}  # summed over the units in use only
    for g, unit in enumerate(placement.unit_of_group):
        if 0 <= unit < n:
            load[unit] = load.get(unit, 0) + gd.group_weights[g]
    total = sum(load.values())
    if total == 0:
        return 1.0
    h = 0.0
    for _, w in sorted(load.items()):
        if w > 0:
            f = w / total
            h -= f * math.log(f)
    return h / math.log(n)

def simulate(
    gd: GroupedDag,
    placement: Placement,
    params: CostParams = CostParams(),
    keep_trace: bool = False,
) -> SimResult:
    """Discrete-event replay of the placed architecture.

    A vertex is ready once every predecessor finished and every
    cross-unit input arrived; each unit runs one vertex at a time,
    picking the smallest (depth, id) among simultaneously ready
    vertices; each ordered unit pair is a FIFO link.  Transfers cost
    latency plus bytes over bandwidth; same-unit and replicated-input
    hand-offs are free.  The makespan is the completion of the output
    gather.

    The event heap holds completions and readiness.  An input counts as
    delivered when it is sent, and each vertex keeps the latest arrival
    among its inputs sent so far; when its last input is sent, it enters
    its unit's ready queue at once if that arrival is not in the future,
    and otherwise enters the event heap once, at that arrival time.

    The static plan (successors with their producer's bytes, predecessor
    counts and vertex depths) is computed once per ``GroupedDag`` and
    shared by every placement simulated on it.  Cost parameters under
    which the total compute time or the makespan is not finite raise
    ``ValueError`` naming them, as does a placement on more than
    ``MAX_UNITS`` units, before anything is allocated.
    """
    if placement.n_units > MAX_UNITS:
        raise ValueError(f"simulate takes at most {MAX_UNITS} units, got {placement.n_units}")
    if len(placement.unit_of_group) != len(gd.groups):
        raise ValueError("placement does not cover every group")
    succ, n_pred, ready_key = gd._sim_plan
    dag = gd.arch.dag
    n = dag.n_vertices
    output = dag.output_vertex
    compute = [f / params.flops_per_time for f in gd.arch.vertex_flops]
    total_compute = sum(compute)
    if not total_compute < math.inf:
        raise ValueError(f"flops_per_time={params.flops_per_time!r} makes the compute times overflow")
    n_total = placement.n_units + (1 if placement.dedicated_merge_unit else 0)

    # Unit state lives in lists indexed by slot: the units the placement
    # uses, numbered densely in unit order.  The replicated input's slot is
    # never dispatched; a unit past n_total runs but is left out of unit_busy.
    units = sorted(set(placement.unit_of_group))
    slot_of = {u: s for s, u in enumerate(units)}
    group_slot = [slot_of[u] for u in placement.unit_of_group]
    slot = [group_slot[g] for g in gd.group_of]
    common = slot_of.get(COMMON_UNIT, -1)
    n_slots = len(units)
    ready: List[List[int]] = [[] for _ in range(n_slots)]
    unit_free = [0.0] * n_slots
    busy = [0.0] * n_slots
    link_free = [0.0] * (n_slots * n_slots)
    missing = list(n_pred)
    arrival = [0.0] * n
    gather_free = not params.include_gather
    latency, bandwidth = params.link_latency, params.bytes_per_time
    trace: List[tuple] = []
    transfers = 0
    bytes_moved = 0
    out_time: Optional[float] = None
    push, pop = heapq.heappush, heapq.heappop

    # Events are (time, seq, code): code v >= 0 completes vertex v, code ~w
    # makes w ready.  Counting an input down when it is sent is exact
    # because an arrival only counts down and queues, so only the latest
    # one matters.  Completions keep their (time, seq) order, which fixes
    # the FIFO order on every link.
    events: List[Tuple[float, int, int]] = [(0.0, 0, dag.input_vertex)]
    seq = 1
    while events:
        now = events[0][0]
        dirty: set[int] = set()
        while events and events[0][0] == now:
            code = pop(events)[2]
            if code < 0:
                w = ~code
                push(ready[slot[w]], ready_key[w])
                dirty.add(slot[w])
                continue
            v = code
            if v == output:
                out_time = now
            src = slot[v]
            if src != common:
                dirty.add(src)
            for w, nbytes in succ[v]:
                dst = slot[w]
                if not (src == common or src == dst or (gather_free and w == output)):
                    link = src * n_slots + dst
                    start = link_free[link]
                    if not start > now:  # max(now, start) without a call
                        start = now
                    done = start + latency + nbytes / bandwidth
                    link_free[link] = done
                    transfers += 1
                    bytes_moved += nbytes
                    if keep_trace:
                        trace.append(("transfer", v, w, units[src], units[dst], start, done))
                    if done > arrival[w]:
                        arrival[w] = done
                missing[w] -= 1
                if missing[w] or dst == common:
                    continue
                if arrival[w] > now:
                    push(events, (arrival[w], seq, ~w))
                    seq += 1
                else:
                    push(ready[dst], ready_key[w])
                    dirty.add(dst)
        for s in dirty if len(dirty) == 1 else sorted(dirty):
            pool = ready[s]
            if not pool or unit_free[s] > now:
                continue
            v = pop(pool) % n
            finish = now + compute[v]
            unit_free[s] = finish
            busy[s] += compute[v]
            if keep_trace:
                trace.append(("compute", v, units[s], now, finish))
            push(events, (finish, seq, v))
            seq += 1

    if out_time is None:
        raise ValueError("output vertex never completed; dag or placement inconsistent")
    if not out_time < math.inf:
        raise ValueError(f"bytes_per_time={bandwidth!r} and link_latency={latency!r} make the makespan overflow")
    return SimResult(
        makespan=out_time,
        speedup_vs_single_unit=(total_compute / out_time) if out_time > 0 else 1.0,
        unit_busy=tuple(busy[slot_of[u]] if u in slot_of else 0.0 for u in range(n_total)),
        transfers=transfers,
        bytes_moved=bytes_moved,
        trace=tuple(trace),
    )

def write_placement(gd: GroupedDag, placement: Placement, path: str | Path) -> None:
    doc = {
        "groups": [list(g) for g in gd.groups],
        "group_weights": list(gd.group_weights),
        "group_edges": [list(e) for e in gd.group_edges],
        "input_group": gd.input_group,
        "output_group": gd.output_group,
        "unit_of_group": list(placement.unit_of_group),
        "n_units": placement.n_units,
        "merge_unit": placement.merge_unit,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

def write_trace_csv(result: SimResult, path: str | Path) -> None:
    """Event rows: computes with unit and span, transfers with link and span."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["event", "vertex", "consumer", "unit_or_src", "dst", "start", "end"])
        for ev in sorted(result.trace, key=lambda e: (e[-2], e[-1], e[:2])):
            if ev[0] == "compute":
                _, v, u, t0, t1 = ev
                w.writerow(["compute", v, "", u, "", repr(t0), repr(t1)])
            else:
                _, v, c, src, dst, t0, t1 = ev
                w.writerow(["transfer", v, c, src, dst, repr(t0), repr(t1)])
