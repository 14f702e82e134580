"""Chain grouping, LPT placement, balance entropy and the event simulator.

Simulator fixtures are hand-traced schedules over synthetic cost tables;
the property loops run the real pipeline end to end.  The straightforward
min-scan placement, the entropy over one load per unit and the event loop
below are kept as references: the library versions must return equal
results on every input.
"""

from __future__ import annotations

import heapq
import math
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from concnas import deploy
from concnas.archmodel import ElaborationConfig, elaborate
from concnas.dagify import orient
from concnas.deploy import (
    COMMON_UNIT,
    CostParams,
    Placement,
    SimResult,
    balance_entropy,
    group_chains,
    place_greedy,
    simulate,
    write_placement,
    write_trace_csv,
)
from concnas.randgraph import GeneratorConfig, generate
from concnas.rng import sample_seed
from concnas.sweep import SweepConfig, generator_config
from helpers import dag_of, empty_graph, path_graph, random_small_graph, synthetic_arch

UNIT_COST = CostParams(flops_per_time=1.0, bytes_per_time=1.0, link_latency=0.0)


def reference_place_greedy(gd, n_units, dedicated_merge_unit=False):
    """LPT by a linear scan for the least-loaded unit, ties to the lowest."""
    merge_unit = n_units if dedicated_merge_unit else 0
    unit_of = [0] * len(gd.groups)
    load = [0] * n_units
    order = sorted(
        (g for g in range(len(gd.groups)) if g not in (gd.input_group, gd.output_group)),
        key=lambda g: (-gd.group_weights[g], g),
    )
    for g in order:
        dest = min(range(n_units), key=lambda u: (load[u], u))
        unit_of[g] = dest
        load[dest] += gd.group_weights[g]
    unit_of[gd.input_group] = COMMON_UNIT
    unit_of[gd.output_group] = merge_unit
    return Placement(
        unit_of_group=tuple(unit_of),
        n_units=n_units,
        merge_unit=merge_unit,
        dedicated_merge_unit=dedicated_merge_unit,
    )


def reference_simulate(gd, placement, params=CostParams(), keep_trace=False):
    """Event loop that reads the DAG's adjacency and depths, not the grouped
    DAG's plan, keys unit state by unit id and sends every hand-off, free
    or not, through the event heap."""
    arch = gd.arch
    dag = arch.dag
    if len(placement.unit_of_group) != len(gd.groups):
        raise ValueError("placement does not cover every group")
    succ = dag.successors
    pred = dag.predecessors
    depths = dag.depths
    unit_of = [placement.unit_of_group[gd.group_of[v]] for v in range(dag.n_vertices)]
    compute = [f / params.flops_per_time for f in arch.vertex_flops]

    missing = [len(pred[v]) for v in range(dag.n_vertices)]
    ready_pool = {}
    unit_free = {}
    link_free = {}
    finish_at = [None] * dag.n_vertices
    busy = {}
    trace = []
    transfers = 0
    bytes_moved = 0
    events = []
    seq = 0

    def push(t, tag, data):
        nonlocal seq
        heapq.heappush(events, (t, seq, tag, data))
        seq += 1

    def complete(v, t):
        nonlocal transfers, bytes_moved
        finish_at[v] = t
        src = unit_of[v]
        for w in succ[v]:
            dst = unit_of[w]
            if src == COMMON_UNIT or src == dst or (w == dag.output_vertex and not params.include_gather):
                push(t, "arrive", (w,))
            else:
                nbytes = arch.out_bytes[v]
                link = (src, dst)
                start = max(t, link_free.get(link, 0.0))
                done = start + params.link_latency + nbytes / params.bytes_per_time
                link_free[link] = done
                transfers += 1
                bytes_moved += nbytes
                if keep_trace:
                    trace.append(("transfer", v, w, src, dst, start, done))
                push(done, "arrive", (w,))

    push(0.0, "complete", (dag.input_vertex,))
    while events:
        now = events[0][0]
        dirty = set()
        while events and events[0][0] == now:
            _, _, tag, (v,) = heapq.heappop(events)
            if tag == "complete":
                complete(v, now)
                if unit_of[v] != COMMON_UNIT:
                    dirty.add(unit_of[v])
            else:
                missing[v] -= 1
                if missing[v] == 0:
                    heapq.heappush(ready_pool.setdefault(unit_of[v], []), (depths[v], v))
                    dirty.add(unit_of[v])
        for u in sorted(dirty):
            pool = ready_pool.get(u)
            if u == COMMON_UNIT or not pool or unit_free.get(u, 0.0) > now:
                continue
            _, v = heapq.heappop(pool)
            finish = now + compute[v]
            unit_free[u] = finish
            busy[u] = busy.get(u, 0.0) + compute[v]
            if keep_trace:
                trace.append(("compute", v, u, now, finish))
            push(finish, "complete", (v,))

    out_time = finish_at[dag.output_vertex]
    if out_time is None:
        raise ValueError("output vertex never completed; dag or placement inconsistent")
    n_total = placement.n_units + (1 if placement.dedicated_merge_unit else 0)
    return SimResult(
        makespan=out_time,
        speedup_vs_single_unit=(sum(compute) / out_time) if out_time > 0 else 1.0,
        unit_busy=tuple(busy.get(u, 0.0) for u in range(n_total)),
        transfers=transfers,
        bytes_moved=bytes_moved,
        trace=tuple(trace),
    )


def placed_by_hand(gd, vertex_units, n_units):
    """Placement fixing each block vertex to a chosen unit."""
    unit_of = [0] * len(gd.groups)
    for v, u in vertex_units.items():
        unit_of[gd.group_of[v]] = u
    unit_of[gd.input_group] = COMMON_UNIT
    unit_of[gd.output_group] = 0
    return Placement(
        unit_of_group=tuple(unit_of),
        n_units=n_units,
        merge_unit=0,
        dedicated_merge_unit=False,
    )


def loads_of(gd, placement):
    load = [0] * placement.n_units
    for g, u in enumerate(placement.unit_of_group):
        if 0 <= u < placement.n_units:
            load[u] += gd.group_weights[g]
    return load


def test_pure_chain_contracts_to_one_group():
    arch = elaborate(orient(path_graph(10)), ElaborationConfig(staging="uniform"))
    gd = group_chains(arch)
    block_groups = [g for g in gd.groups if len(g) > 1 or arch.dag.kinds[g[0]] == "block"]
    assert len(block_groups) == 1
    assert len(block_groups[0]) == 10


def test_parallel_blocks_stay_apart():
    arch = elaborate(orient(empty_graph(10)), ElaborationConfig(staging="uniform"))
    gd = group_chains(arch)
    assert all(len(g) == 1 for g in gd.groups)
    assert len(gd.groups) == 12


def test_diamond_has_no_contractions():
    dag = dag_of(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    arch = synthetic_arch(dag, (10, 10, 10, 10, 0, 0))
    gd = group_chains(arch)
    assert all(len(g) == 1 for g in gd.groups)


def test_grouping_structure():
    rng = random.Random(0xDADA)
    for _ in range(500):
        g = random_small_graph(rng)
        arch = elaborate(orient(g), seed=rng.randrange(2**32))
        gd = group_chains(arch)
        dag = arch.dag
        succ = dag.successors

        covered = sorted(v for grp in gd.groups for v in grp)
        assert covered == list(range(dag.n_vertices))
        for gid, grp in enumerate(gd.groups):
            assert gd.group_weights[gid] == sum(arch.vertex_flops[v] for v in grp)
            for a, b in zip(grp, grp[1:]):
                assert b in succ[a], "groups must follow dag edges"
            assert all(gd.group_of[v] == gid for v in grp)

        # contracted graph stays acyclic: follow group edges by rank
        indeg = {}
        adj = {}
        for ga, gb, _ in gd.group_edges:
            adj.setdefault(ga, []).append(gb)
            indeg[gb] = indeg.get(gb, 0) + 1
        frontier = [g for g in range(len(gd.groups)) if indeg.get(g, 0) == 0]
        seen = 0
        while frontier:
            x = frontier.pop()
            seen += 1
            for y in adj.get(x, []):
                indeg[y] -= 1
                if indeg[y] == 0:
                    frontier.append(y)
        assert seen == len(gd.groups)


def test_lpt_hand_trace():
    dag = dag_of(4, [])
    arch = synthetic_arch(dag, (5, 3, 3, 1, 0, 0))
    gd = group_chains(arch)
    p = place_greedy(gd, 2)
    assert sorted(loads_of(gd, p)) == [6, 6]
    # LPT: 5 and the trailing 1 share unit 0, the threes share unit 1
    unit0 = sorted(
        gd.group_weights[g]
        for g, u in enumerate(p.unit_of_group)
        if u == 0 and g not in (gd.input_group, gd.output_group)
    )
    assert unit0 == [1, 5]


def test_equal_groups_balance_perfectly():
    dag = dag_of(4, [])
    arch = synthetic_arch(dag, (7, 7, 7, 7, 0, 0))
    gd = group_chains(arch)
    p = place_greedy(gd, 4)
    assert sorted(loads_of(gd, p)) == [7, 7, 7, 7]
    assert balance_entropy(gd, p) == pytest.approx(1.0, abs=1e-12)


def test_single_unit_takes_everything():
    arch = elaborate(orient(path_graph(5)), ElaborationConfig(staging="uniform"))
    gd = group_chains(arch)
    p = place_greedy(gd, 1)
    for g, u in enumerate(p.unit_of_group):
        if g == gd.input_group:
            assert u == COMMON_UNIT
        else:
            assert u == 0


def test_input_scattered_output_on_merge_unit():
    arch = elaborate(orient(empty_graph(6)), ElaborationConfig(staging="uniform"))
    gd = group_chains(arch)
    p = place_greedy(gd, 3)
    assert p.unit_of_group[gd.input_group] == COMMON_UNIT
    assert p.unit_of_group[gd.output_group] == 0
    assert p.merge_unit == 0

    q = place_greedy(gd, 3, dedicated_merge_unit=True)
    assert q.unit_of_group[gd.output_group] == 3
    assert q.merge_unit == 3


def test_entropy_degenerate_and_lopsided():
    dag = dag_of(2, [])
    arch = synthetic_arch(dag, (3, 1, 0, 0))
    gd = group_chains(arch)
    p = place_greedy(gd, 2)
    assert balance_entropy(gd, p) == pytest.approx(0.8113, abs=5e-5)

    all_on_one = placed_by_hand(gd, {0: 0, 1: 0}, 4)
    assert balance_entropy(gd, all_on_one) == pytest.approx(0.0, abs=1e-12)


def test_entropy_of_weightless_placement():
    dag = dag_of(2, [])
    arch = synthetic_arch(dag, (0, 0, 0, 0))
    gd = group_chains(arch)
    p = place_greedy(gd, 2)
    assert balance_entropy(gd, p) == 1.0


def test_serial_chain_runs_back_to_back():
    dag = dag_of(2, [(0, 1)])
    arch = synthetic_arch(dag, (10, 10, 0, 0))
    gd = group_chains(arch)
    r = simulate(gd, place_greedy(gd, 1), UNIT_COST)
    assert r.makespan == pytest.approx(20.0)
    assert r.speedup_vs_single_unit == pytest.approx(1.0)


def test_parallel_blocks_overlap_fully():
    dag = dag_of(2, [])
    arch = synthetic_arch(dag, (10, 10, 0, 0))
    gd = group_chains(arch)
    p = place_greedy(gd, 2)
    r = simulate(gd, p, CostParams(1.0, math.inf, 0.0))
    assert r.makespan == pytest.approx(10.0)
    assert r.speedup_vs_single_unit == pytest.approx(2.0)


def test_diamond_schedule_hand_trace():
    # a 0-10 on unit 0; a->c transfer 10-20; b 10-20 on unit 0;
    # c 20-30 on unit 1; c->d transfer 30-40; d 40-50 on unit 0
    dag = dag_of(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    arch = synthetic_arch(dag, (10, 10, 10, 10, 0, 0), default_bytes=10)
    gd = group_chains(arch)
    p = placed_by_hand(gd, {0: 0, 1: 0, 2: 1, 3: 0}, 2)
    r = simulate(gd, p, UNIT_COST)
    assert r.makespan == pytest.approx(50.0)


def test_shared_link_transfers_serialize():
    # blocks 0 (10 flops) and 1 (2 flops) on unit 1 both feed 2 on unit 0;
    # link latency 3, bytes 7: second transfer waits for the first
    dag = dag_of(3, [(0, 2), (1, 2)])
    arch = synthetic_arch(dag, (10, 2, 5, 0, 0), default_bytes=7)
    gd = group_chains(arch)
    p = placed_by_hand(gd, {0: 1, 1: 1, 2: 0}, 2)
    r = simulate(gd, p, CostParams(1.0, 1.0, 3.0))
    assert r.makespan == pytest.approx(35.0)


def test_gather_cost_is_opt_out():
    dag = dag_of(2, [])
    arch = synthetic_arch(dag, (10, 10, 0, 0))
    gd = group_chains(arch)
    p = place_greedy(gd, 2)
    with_gather = simulate(gd, p, CostParams(1.0, 1.0, 0.5, include_gather=True))
    without = simulate(gd, p, CostParams(1.0, 1.0, 0.5, include_gather=False))
    # exactly one cross-unit result transfer: latency 0.5 plus 1 byte
    assert with_gather.makespan == pytest.approx(without.makespan + 1.5)
    assert without.makespan == pytest.approx(10.0)


def test_single_unit_equals_total_compute():
    rng = random.Random(606)
    for _ in range(500):
        g = random_small_graph(rng)
        arch = elaborate(orient(g), seed=rng.randrange(2**32))
        gd = group_chains(arch)
        r = simulate(gd, place_greedy(gd, 1))
        params = CostParams()
        total = sum(arch.vertex_flops) / params.flops_per_time
        assert r.makespan == pytest.approx(total)
        assert r.speedup_vs_single_unit == pytest.approx(1.0)


def critical_path_time(arch, throughput):
    dag = arch.dag
    pred = dag.predecessors
    best = [0.0] * dag.n_vertices
    for v in dag.order:
        incoming = max((best[u] for u in pred[v]), default=0.0)
        best[v] = incoming + arch.vertex_flops[v] / throughput
    return best[dag.output_vertex]


def test_makespan_lower_bounds():
    rng = random.Random(707)
    params = CostParams()
    for _ in range(1000):
        g = random_small_graph(rng)
        arch = elaborate(orient(g), seed=rng.randrange(2**32))
        gd = group_chains(arch)
        n = rng.choice((2, 3, 4, 8))
        r = simulate(gd, place_greedy(gd, n), params)
        total = sum(arch.vertex_flops) / params.flops_per_time
        assert r.makespan >= critical_path_time(arch, params.flops_per_time) - 1e-9
        assert r.makespan >= total / n - 1e-9
        assert r.speedup_vs_single_unit <= n + 1e-9
        assert sum(r.unit_busy) == pytest.approx(total)


def test_more_bandwidth_never_slows():
    rng = random.Random(808)
    for _ in range(500):
        g = random_small_graph(rng)
        arch = elaborate(orient(g), seed=rng.randrange(2**32))
        gd = group_chains(arch)
        p = place_greedy(gd, rng.choice((2, 4)))
        slow = simulate(gd, p, CostParams(400_000.0, 65_536.0, 0.05))
        fast = simulate(gd, p, CostParams(400_000.0, 131_072.0, 0.05))
        assert fast.makespan <= slow.makespan + 1e-9


def test_unplaced_group_rejected():
    arch = elaborate(orient(path_graph(4)), ElaborationConfig(staging="uniform"))
    gd = group_chains(arch)
    bad = Placement(unit_of_group=(0,), n_units=2, merge_unit=0, dedicated_merge_unit=False)
    with pytest.raises(ValueError):
        simulate(gd, bad)


def test_trace_and_placement_export(tmp_path):
    arch = elaborate(orient(path_graph(4)), ElaborationConfig(staging="uniform"))
    gd = group_chains(arch)
    p = place_greedy(gd, 2)
    r = simulate(gd, p, keep_trace=True)
    assert r.trace, "trace rows requested"

    tpath = tmp_path / "trace.csv"
    write_trace_csv(r, tpath)
    lines = tpath.read_text().strip().splitlines()
    assert len(lines) == len(r.trace) + 1

    ppath = tmp_path / "placement.json"
    write_placement(gd, p, ppath)
    assert "unit_of_group" in ppath.read_text()


def test_deterministic_replay():
    rng = random.Random(909)
    for _ in range(50):
        g = random_small_graph(rng)
        arch = elaborate(orient(g), seed=5)
        gd = group_chains(arch)
        p = place_greedy(gd, 4)
        assert simulate(gd, p) == simulate(gd, p)


def test_placement_matches_min_scan_reference():
    """Real cost tables, and small integer weights where loads often tie."""
    rng = random.Random(0x51A7)
    for i in range(60):
        dag = orient(random_small_graph(rng, max_n=40))
        if i % 2:
            arch = synthetic_arch(dag, [rng.randrange(4) for _ in range(dag.n_vertices)])
        else:
            arch = elaborate(dag, seed=rng.randrange(2**32))
        gd = group_chains(arch)
        for n in range(1, 17):
            for dedicated in (False, True):
                assert place_greedy(gd, n, dedicated) == reference_place_greedy(gd, n, dedicated)


def reference_entropy(gd, placement):
    """Balance entropy over one load per unit, idle units included."""
    n = placement.n_units
    load = [0] * n
    for g, unit in enumerate(placement.unit_of_group):
        if 0 <= unit < n:
            load[unit] += gd.group_weights[g]
    total = sum(load)
    if n == 1 or total == 0:
        return 1.0
    return -sum(w / total * math.log(w / total) for w in load if w > 0) / math.log(n)


def test_placement_matches_reference_around_the_group_count():
    """Unit counts below, at and above the number of groups to place give
    the full-width reference's placement and entropy."""
    rng = random.Random(0x6E0C)
    for i in range(40):
        dag = orient(random_small_graph(rng, max_n=30))
        if i % 2:
            arch = synthetic_arch(dag, [rng.randrange(3) for _ in range(dag.n_vertices)])
        else:
            arch = elaborate(dag, seed=rng.randrange(2**32))
        gd = group_chains(arch)
        placeable = len(set(range(len(gd.groups))) - {gd.input_group, gd.output_group})
        for n in sorted({1, placeable - 1, placeable, placeable + 1, 3 * placeable + 7} - {-1, 0}):
            for dedicated in (False, True):
                p = place_greedy(gd, n, dedicated)
                assert p == reference_place_greedy(gd, n, dedicated), (i, n)
                assert balance_entropy(gd, p) == reference_entropy(gd, p), (i, n)


def test_placement_memory_is_bounded_by_groups_not_units():
    gd = group_chains(elaborate(orient(generate(GeneratorConfig(kind="er", n_vertices=20, p=0.2))), seed=0))
    tracemalloc.start()
    try:
        p = place_greedy(gd, 200_000)
        entropy = balance_entropy(gd, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18
    assert p == reference_place_greedy(gd, 200_000)
    assert 0 < entropy < 1


def test_simulation_matches_reference_event_loop():
    rng = random.Random(0xE7E7)
    variants = (
        CostParams(),
        CostParams(include_gather=False),
        CostParams(link_latency=0.0),
        CostParams(1.0, math.inf, 0.0),
    )
    for i in range(40):
        g = random_small_graph(rng, max_n=40)
        gd = group_chains(elaborate(orient(g), seed=rng.randrange(2**32)))
        params = variants[i % len(variants)]
        for n in range(1, 17):
            for dedicated in (False, True):
                p = place_greedy(gd, n, dedicated)
                assert simulate(gd, p, params, keep_trace=True) == reference_simulate(gd, p, params, keep_trace=True)


def test_simulation_matches_reference_with_simultaneous_events():
    """Zero-flop merges and blocks, zero-byte edges and zero latency put many
    completions and arrivals on one timestamp; hand-built placements also
    use units past n_units."""
    rng = random.Random(0x5EED)
    params_grid = (UNIT_COST, CostParams(1.0, math.inf, 0.0, include_gather=False), CostParams(2.0, 3.0, 0.5))
    for _ in range(150):
        dag = orient(random_small_graph(rng))
        flops = [0 if kind == "merge" else rng.choice((0, 1, 2, 5)) for kind in dag.kinds]
        gd = group_chains(synthetic_arch(dag, flops, [rng.choice((0, 1, 3)) for _ in range(dag.n_vertices)]))
        n = rng.randrange(1, 6)
        units = [rng.randrange(n + 2) for _ in gd.groups]
        units[gd.input_group] = COMMON_UNIT
        p = Placement(tuple(units), n, units[gd.output_group], rng.random() < 0.5)
        for params in params_grid:
            assert simulate(gd, p, params, keep_trace=True) == reference_simulate(gd, p, params, keep_trace=True)


def test_group_on_common_unit_never_runs():
    dag = dag_of(2, [(0, 1)])
    gd = group_chains(synthetic_arch(dag, (10, 10, 0, 0)))
    p = place_greedy(gd, 2)
    units = list(p.unit_of_group)
    units[gd.group_of[0]] = COMMON_UNIT
    bad = Placement(tuple(units), 2, 0, False)
    for sim in (simulate, reference_simulate):
        with pytest.raises(ValueError, match="never completed"):
            sim(gd, bad)


def test_unit_past_n_units_runs_outside_unit_busy():
    dag = dag_of(2, [])
    gd = group_chains(synthetic_arch(dag, (10, 4, 0, 0)))
    p = placed_by_hand(gd, {0: 0, 1: 3}, 2)
    r = simulate(gd, p, UNIT_COST, keep_trace=True)
    assert r == reference_simulate(gd, p, UNIT_COST, keep_trace=True)
    assert ("compute", 1, 3, 0.0, 4.0) in r.trace
    assert r.unit_busy == (10.0, 0.0)
    assert r.makespan == pytest.approx(10.0)


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param({"link_latency": True}, id="link-latency-True"),
        pytest.param({"flops_per_time": True}, id="flops-True"),
        pytest.param({"bytes_per_time": True}, id="bytes-True"),
    ],
)
def test_cost_params_reject_bool_numbers(fields):
    with pytest.raises(ValueError, match="takes only numbers"):
        CostParams(**fields)


def test_cost_params_take_ints_and_infinite_bandwidth():
    assert CostParams(1, 2, 0) == CostParams(1.0, 2.0, 0.0)
    assert CostParams(bytes_per_time=math.inf).bytes_per_time == math.inf


def _hand_case(n_blocks, edges, flops, out_bytes, vertex_units, n_units, dedicated=False):
    """A synthetic architecture whose block vertex v runs on vertex_units[v];
    the output sits on unit 0, or on unit n_units when dedicated."""
    dag = dag_of(n_blocks, edges)
    gd = group_chains(synthetic_arch(dag, flops, out_bytes))
    units = [0] * len(gd.groups)
    for v, u in enumerate(vertex_units):
        units[gd.group_of[v]] = u
    units[gd.input_group] = COMMON_UNIT
    merge = n_units if dedicated else 0
    units[gd.output_group] = merge
    return gd, Placement(tuple(units), n_units, merge, dedicated)


# name: (hand case arguments, cost parameters, makespan traced by hand)
READINESS_CASES = {
    # x and a on unit 1 feed c on unit 0 through one link: x's 100 bytes
    # hold it over 1-101, so a (sent at 2) lands at 102, after b's input
    # (sent last, at 5, on the idle link from unit 2) lands at 6
    "last-sent-lands-first": (
        (4, [(0, 3), (1, 3), (2, 3)], (1, 1, 5, 1, 0, 0), (100, 1, 1, 1, 1, 1), (1, 1, 2, 0), 3), UNIT_COST, 103.0,
    ),
    # r on unit 1 sends to c at 1 and lands at 11; the local l completes at 5
    "local-input-between-send-and-land": (
        (3, [(0, 2), (1, 2)], (1, 5, 1, 0, 0), (10, 1, 1, 1, 1), (1, 0, 0), 2), UNIT_COST, 12.0,
    ),
    # every transfer lands when it is sent: c waits only for b
    "zero-latency-infinite-bandwidth": (
        (3, [(0, 2), (1, 2)], (3, 5, 1, 0, 0), None, (0, 1, 0), 2), CostParams(1.0, math.inf, 0.0), 6.0,
    ),
    # z takes no time, so its completion and its transfer share timestamps
    "zero-flop-vertex": (
        (3, [(0, 1), (0, 2), (1, 2)], (2, 0, 1, 0, 0), (1, 0, 1, 1, 1), (0, 1, 0), 2), UNIT_COST, 4.0,
    ),
    # both blocks gather onto unit 2, each on its own link
    "dedicated-merge-unit": ((2, [], (10, 10, 0, 0), None, (0, 1), 2, True), UNIT_COST, 11.0),
}


@pytest.mark.parametrize("case", sorted(READINESS_CASES))
def test_readiness_events_match_reference(case):
    args, params, makespan = READINESS_CASES[case]
    gd, p = _hand_case(*args)
    r = simulate(gd, p, params, keep_trace=True)
    assert r == reference_simulate(gd, p, params, keep_trace=True)
    assert r.makespan == makespan


def _simulate_units_inputs():
    """The grouped architectures of seed 0's 100 ``simulate-units``
    benchmark rounds: each generator's 40-vertex sample r at the sweep's
    defaults."""
    cfg = SweepConfig()
    for r in range(100):
        seed = sample_seed(0, r)
        for kind in cfg.generators:
            yield group_chains(elaborate(orient(generate(generator_config(cfg, kind, seed))), seed=seed))


def test_at_most_three_heap_pushes_per_vertex(monkeypatch):
    """A vertex enters the heaps at most three times: its completion, its
    ready queue, and one readiness event when an input lands later than
    its last input is sent.  One event per transfer averages 3.9."""
    pushes = 0

    def counting_push(heap, item):
        nonlocal pushes
        pushes += 1
        heapq.heappush(heap, item)

    shim = SimpleNamespace(heappush=counting_push, heappop=heapq.heappop, heapreplace=heapq.heapreplace)
    monkeypatch.setattr(deploy, "heapq", shim)
    worst = 0.0
    for gd in _simulate_units_inputs():
        for n in range(1, 17):
            p = place_greedy(gd, n)
            pushes = 0
            simulate(gd, p)
            worst = max(worst, pushes / gd.arch.dag.n_vertices)
    assert worst <= 3.0


@pytest.mark.parametrize("field", ["flops_per_time", "bytes_per_time"])
def test_overflowing_cost_parameter_is_named(field):
    gd = group_chains(elaborate(orient(generate(GeneratorConfig(kind="ws", n_vertices=8, k=4, p=0.5))), seed=0))
    with pytest.raises(ValueError, match=f"^{field}=1e-320 "):
        simulate(gd, place_greedy(gd, 3), CostParams(**{field: 1e-320}))


def test_bandwidth_without_transfers_cannot_overflow():
    gd = group_chains(elaborate(orient(generate(GeneratorConfig(kind="ws", n_vertices=8, k=4, p=0.5))), seed=0))
    r = simulate(gd, place_greedy(gd, 1), CostParams(bytes_per_time=1e-320))
    assert r == simulate(gd, place_greedy(gd, 1)) and r.transfers == 0


def test_unit_state_follows_the_units_used():
    """Per-unit state is sized by the units a placement uses, not by the
    largest unit id: 3,000 units on a 22-vertex DAG stay small."""
    gd = group_chains(elaborate(orient(generate(GeneratorConfig(kind="er", n_vertices=20, p=0.2))), seed=0))
    p = place_greedy(gd, 3000)
    tracemalloc.start()
    try:
        r = simulate(gd, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(r.unit_busy) == 3000 and sum(r.unit_busy) == pytest.approx(sum(simulate(gd, place_greedy(gd, 1)).unit_busy))
