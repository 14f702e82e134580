"""Hypergraph construction, the connectivity metric and the partitioner.

Every partitioner claim is re-checked against independent recounts; a
brute-force enumerator over all bipartitions serves as the quality
oracle at small sizes.  The FM refiner that rescans every unpruned
vertex row before each move, with a bound that ignores the cap, is kept
below as the reference: the library's ``_refine`` must return equal
results on every input.  The Python build of the gain tables is the
reference for the numpy kernel ``_tables``, and the rebalance that keeps
its own pin counts is the reference for ``_rebalance``, whose tables
must equal that build's.  Likewise a coarsening that
builds a fresh hierarchy for every part count is the reference for the
levels that ``_hierarchy`` shares between part counts.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from concnas import hypart, sweep
from concnas.archmodel import ElaborationConfig, elaborate
from concnas.dagify import orient
from concnas.hypart import (
    _MAX_PASSES,
    _OWN_PART,
    _STALL_LIMIT,
    Hypergraph,
    _Level,
    _rebalance,
    _refine,
    _tables,
    build_hypergraph,
    load_imbalance,
    part_weights,
    partition,
    total_communication,
    write_hmetis,
)
from concnas.randgraph import generate
from concnas.rng import sample_seed
from concnas.sweep import SweepConfig, generator_config
from helpers import empty_graph, path_graph, random_small_graph


def recount(h, parts):
    """Definition-level recount of the connectivity metric."""
    total = 0
    for pin, lam in zip(h.pins, h.weights):
        touched = len({parts[v] for v in pin})
        if touched > 1:
            total += lam * (touched - 1)
    return total


def chain_hypergraph(n, lam=9, weight=5):
    pins = tuple((i, i + 1) for i in range(n - 1))
    return Hypergraph(
        n_vertices=n,
        pins=pins,
        weights=(lam,) * len(pins),
        vertex_weights=(weight,) * n,
    )


def random_hypergraph(rng, max_n=10):
    """Loose random pins and weights; not tied to any architecture."""
    n = rng.randrange(2, max_n + 1)
    n_edges = rng.randrange(1, 2 * n)
    pins = []
    for _ in range(n_edges):
        size = rng.randrange(2, min(n, 5) + 1)
        pins.append(tuple(sorted(rng.sample(range(n), size))))
    return Hypergraph(
        n_vertices=n,
        pins=tuple(pins),
        weights=tuple(rng.randrange(1, 50) for _ in pins),
        vertex_weights=tuple(rng.randrange(0, 20) for _ in range(n)),
    )


def best_bipartition(h, eps):
    """Exhaustive 2-way optimum under the same effective weight cap."""
    total = sum(h.vertex_weights)
    cap = max(eps * total / 2, float(max(h.vertex_weights, default=0)))
    best = None
    for mask in range(1, 2 ** (h.n_vertices - 1)):
        parts = [(mask >> v) & 1 for v in range(h.n_vertices)]
        if len(set(parts)) < 2:
            continue
        if max(part_weights(h, parts, 2)) > cap + 1e-9:
            continue
        lam = recount(h, parts)
        if best is None or lam < best:
            best = lam
    return best


def test_chain_hyperedges():
    arch = elaborate(orient(path_graph(3)), ElaborationConfig(staging="uniform"))
    h = build_hypergraph(arch)
    dag = arch.dag
    pin_sets = {frozenset(p) for p in h.pins}
    assert frozenset({0, 1}) in pin_sets
    assert frozenset({1, 2}) in pin_sets
    assert frozenset({dag.input_vertex, 0}) in pin_sets
    assert frozenset({2, dag.output_vertex}) in pin_sets
    assert len(h.pins) == 4


def test_fanout_shares_one_hyperedge():
    arch = elaborate(orient(empty_graph(3)), ElaborationConfig(staging="uniform"))
    h = build_hypergraph(arch)
    dag = arch.dag
    fan = [p for p in h.pins if dag.input_vertex in p]
    assert len(fan) == 1
    assert set(fan[0]) == {dag.input_vertex, 0, 1, 2}
    lam = h.weights[h.pins.index(fan[0])]
    assert lam == 65536


def test_hyperedge_per_producer():
    rng = random.Random(5150)
    for _ in range(300):
        g = random_small_graph(rng)
        arch = elaborate(orient(g), seed=rng.randrange(2**32))
        h = build_hypergraph(arch)
        succ = arch.dag.successors
        producers = [v for v in range(arch.dag.n_vertices) if succ[v]]
        assert len(h.pins) == len(producers)
        for pin, lam in zip(h.pins, h.weights):
            u = pin[0]
            assert set(pin) == {u, *succ[u]}
            assert lam == arch.out_bytes[u]
        assert h.vertex_weights == arch.vertex_flops


def test_metric_single_hyperedge_three_parts():
    h = Hypergraph(n_vertices=3, pins=((0, 1, 2),), weights=(5,), vertex_weights=(1, 1, 1))
    assert total_communication(h, (0, 1, 2)) == 10
    assert total_communication(h, (0, 0, 0)) == 0


def test_metric_matches_recount():
    rng = random.Random(86)
    for _ in range(1000):
        h = random_hypergraph(rng)
        parts = [rng.randrange(0, 4) for _ in range(h.n_vertices)]
        assert total_communication(h, parts) == recount(h, parts)


def test_metric_invariant_under_relabeling():
    rng = random.Random(87)
    for _ in range(300):
        h = random_hypergraph(rng)
        parts = [rng.randrange(0, 3) for _ in range(h.n_vertices)]
        relabel = {0: 2, 1: 0, 2: 1}
        assert total_communication(h, parts) == total_communication(
            h, [relabel[p] for p in parts]
        )


def test_merging_parts_never_raises_metric():
    rng = random.Random(88)
    for _ in range(500):
        h = random_hypergraph(rng)
        parts = [rng.randrange(0, 4) for _ in range(h.n_vertices)]
        a, b = rng.sample(range(4), 2)
        merged = [a if p == b else p for p in parts]
        assert total_communication(h, merged) <= total_communication(h, parts)


def test_partition_covers_and_reports_exactly():
    rng = random.Random(0xFACE)
    for _ in range(1000):
        g = random_small_graph(rng)
        arch = elaborate(orient(g), seed=rng.randrange(2**32))
        h = build_hypergraph(arch)
        n_parts = rng.randrange(2, min(4, h.n_vertices) + 1)
        eps = rng.uniform(1.05, 2.0)
        p = partition(h, n_parts, eps, seed=rng.randrange(2**32))
        assert len(p.parts) == h.n_vertices
        assert set(p.parts) == set(range(n_parts)), "every part must be non-empty"
        assert p.lam == recount(h, p.parts)
        assert p.imbalance == pytest.approx(load_imbalance(h, p.parts, n_parts))
        if not p.best_effort:
            assert p.imbalance <= eps + 1e-9
        assert list(p.lam_history) == sorted(p.lam_history, reverse=True)
        assert p.lam_history[-1] == p.lam


def lpt_heaviest_part(h, n_parts):
    """Heaviest part after greedy LPT: vertices by falling weight, each to the lightest part."""
    loads = [0] * n_parts
    for w in sorted(h.vertex_weights, reverse=True):
        loads[loads.index(min(loads))] += w
    return max(loads)


def test_partition_meets_cap_whenever_lpt_does():
    rng = random.Random(0xCA9)
    checked = 0
    for i in range(600):
        if i % 2:
            h = random_hypergraph(rng, max_n=12)
        else:
            g = random_small_graph(rng)
            h = build_hypergraph(
                elaborate(orient(g), seed=rng.randrange(2**32))
            )
        n_parts = rng.randrange(2, min(8, h.n_vertices) + 1)
        eps = rng.choice((1.05, 1.1, 1.2, 1.35, 1.5))
        if lpt_heaviest_part(h, n_parts) > eps * sum(h.vertex_weights) / n_parts:
            continue
        p = partition(h, n_parts, eps, seed=rng.randrange(2**32))
        checked += 1
        assert not p.best_effort, (h, n_parts, eps)
        assert max(part_weights(h, p.parts, n_parts)) <= eps * sum(h.vertex_weights) / n_parts
    assert checked > 300


def test_partition_deterministic():
    rng = random.Random(313)
    for _ in range(50):
        g = random_small_graph(rng)
        arch = elaborate(orient(g), seed=7)
        h = build_hypergraph(arch)
        assert partition(h, 2, 1.5, seed=42) == partition(h, 2, 1.5, seed=42)


def test_four_disconnected_chains_split_free():
    pins = []
    for base in range(0, 12, 3):
        pins += [(base, base + 1), (base + 1, base + 2)]
    h = Hypergraph(
        n_vertices=12,
        pins=tuple(pins),
        weights=(7,) * len(pins),
        vertex_weights=(5,) * 12,
    )
    p = partition(h, 4, 1.05, seed=0)
    assert p.lam == 0
    assert p.imbalance == pytest.approx(1.0)
    for chain in range(4):
        ids = {p.parts[3 * chain + i] for i in range(3)}
        assert len(ids) == 1


def test_tight_chain_splits_contiguously():
    h = chain_hypergraph(8)
    p = partition(h, 2, 1.01, seed=0)
    assert p.lam == 9, "exactly one link should be cut"
    left = {v for v in range(8) if p.parts[v] == p.parts[0]}
    assert left in ({0, 1, 2, 3}, {4, 5, 6, 7})


def test_partition_rejects_bad_arguments():
    h = chain_hypergraph(4)
    with pytest.raises(ValueError):
        partition(h, 1, 1.5)
    with pytest.raises(ValueError):
        partition(h, 5, 1.5)
    with pytest.raises(ValueError):
        partition(h, 2, 0.9)
    for eps in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            partition(h, 2, eps)


@pytest.mark.parametrize(
    "weights, vertex_weights",
    [pytest.param((1,), (1, w), id=str(w)) for w in (2.0, 2.5, -1, "3")]
    + [pytest.param((w,), (1, 1), id=f"hyperedge-{w}") for w in (2.0, 2.5, -1, "3")]
    # bool is an int subclass, but a True weight is a flag, not a count
    + [pytest.param((1,), (1, True), id="vertex-True"), pytest.param((True,), (1, 1), id="hyperedge-True")]
    # the gain tables sum hyperedge weights, and the cap is computed from the
    # vertex-weight total, in float64, exact below 2**53
    + [pytest.param((2**52, 2**52), (1, 1), id="hyperedge-total-2**53")]
    + [pytest.param((1,), (2**52, 2**52), id="vertex-total-2**53")]
    + [pytest.param((1,), (10**400, 1), id="vertex-total-10**400")],
)
def test_hypergraph_rejects_weight_that_is_not_a_nonnegative_int(weights, vertex_weights):
    with pytest.raises(ValueError, match=r"integer|below 2\*\*53"):
        Hypergraph(n_vertices=2, pins=((0, 1),) * len(weights), weights=weights, vertex_weights=vertex_weights)


def test_hypergraph_rejects_empty_hyperedge():
    # it would count as touching -1 parts, so a partition's lam could go negative
    with pytest.raises(ValueError, match="empty hyperedge"):
        Hypergraph(n_vertices=3, pins=((), (0, 1)), weights=(5, 5), vertex_weights=(1, 1, 1))


def test_hypergraph_needs_one_weight_per_vertex():
    with pytest.raises(ValueError, match="one weight per vertex"):
        Hypergraph(n_vertices=3, pins=((0, 1),), weights=(1,), vertex_weights=(1, 1))


def test_heavy_vertex_forces_best_effort():
    h = Hypergraph(
        n_vertices=4,
        pins=((0, 1), (1, 2), (2, 3)),
        weights=(3, 3, 3),
        vertex_weights=(100, 1, 1, 1),
    )
    p = partition(h, 2, 1.05, seed=0)
    assert p.best_effort
    assert p.imbalance > 1.05


def test_load_imbalance_cases():
    h = chain_hypergraph(4, weight=10)
    assert load_imbalance(h, (0, 0, 1, 1), 2) == pytest.approx(1.0)

    lopsided = Hypergraph(
        n_vertices=2, pins=((0, 1),), weights=(1,), vertex_weights=(30, 10)
    )
    assert load_imbalance(lopsided, (0, 1), 2) == pytest.approx(1.5)

    weightless = Hypergraph(
        n_vertices=2, pins=((0, 1),), weights=(1,), vertex_weights=(0, 0)
    )
    assert load_imbalance(weightless, (0, 1), 2) == 1.0


def test_quality_against_exhaustive_bipartition():
    rng = random.Random(2024)
    good = total = 0
    for _ in range(60):
        h = random_hypergraph(rng, max_n=8)
        opt = best_bipartition(h, 1.5)
        if opt is None:
            continue
        p = partition(h, 2, 1.5, seed=rng.randrange(2**32))
        total += 1
        assert p.lam >= opt or p.best_effort
        if p.lam <= 1.2 * opt:
            good += 1
    assert total > 40
    assert good / total >= 0.9


# sha256 of repr([(parts, lam), ...]) over acceptance criterion 1's 200 instances
SINGLE_LEVEL_SHA256 = "01fc7da202c276151acebbcad523d8064c0b83699e9fb41ae9748755fbcb363c"
SINGLE_LEVEL_HISTORY_SHA256 = "cd7ccdcb01723e5ea275740eb9f63fb6c334e2900d78f11eaa23038ab3f7ea7e"


def test_single_level_outputs_pinned():
    """Acceptance criterion 1's instances (the same draws, at most 10
    vertices) never coarsen, so their starts are refined before ranking,
    and their outputs are pinned: a change to the start phase that would
    move criterion 1's verdict fails here first.  Each ``lam_history`` is
    pinned too, so a change to where refinement resumes after the starts
    shows here even when the partitions do not move."""
    rng = random.Random(101)
    outputs = []
    histories = []
    while len(outputs) < 200:
        h = random_hypergraph(rng)
        if best_bipartition(h, 1.5) is None:
            continue
        assert len(hypart._hierarchy(h, 2, max(sum(h.vertex_weights) // 2, max(h.vertex_weights)))) == 1
        p = partition(h, 2, 1.5, seed=rng.randrange(2**32))
        outputs.append((p.parts, p.lam))
        histories.append(p.lam_history)
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == SINGLE_LEVEL_SHA256
    assert hashlib.sha256(repr(histories).encode()).hexdigest() == SINGLE_LEVEL_HISTORY_SHA256


def test_hmetis_export_golden(tmp_path):
    h = Hypergraph(
        n_vertices=4,
        pins=((0, 1, 2), (2, 3)),
        weights=(11, 4),
        vertex_weights=(7, 0, 3, 5),
    )
    path = tmp_path / "h.hgr"
    write_hmetis(h, path)
    assert path.read_text() == "2 4 11\n11 1 2 3\n4 3 4\n7\n0\n3\n5\n"


def reference_refine(level, parts, n_parts, cap, max_passes=_MAX_PASSES):
    """FM passes whose pruning bound is the row minimum over every other
    part, so each pick scans the rows of all vertices that the bound
    cannot rule out, targets with no room included."""
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
        min_push = [min(push[v]) for v in range(n)]
        locked = bytearray(n)
        moves = []
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


def reference_tables(level, parts, n_parts):
    """The Python build of ``_tables``: part counts per hyperedge, the
    connectivity, and push rows that start at each vertex's incident
    hyperedge weight and subtract every hyperedge once per part it
    touches."""
    n, pins, lam = level.n, level.pins, level.lam
    ve = level.ve
    counts = [[0] * n_parts for _ in pins]
    for e, pin in enumerate(pins):
        ce = counts[e]
        for v in pin:
            ce[parts[v]] += 1
    connectivity = 0
    for e in range(len(pins)):
        connectivity += lam[e] * (n_parts - counts[e].count(0) - 1)
    touched = [[t for t in range(n_parts) if ce[t]] for ce in counts]
    pull = [0] * n
    push = []
    for v in range(n):
        pv = parts[v]
        acc = 0
        pu = [sum(lam[e] for e in ve[v])] * n_parts
        for e in ve[v]:
            w_e = lam[e]
            if counts[e][pv] == 1:
                acc += w_e
            for t in touched[e]:
                pu[t] -= w_e
        pu[pv] = _OWN_PART
        push.append(pu)
        pull[v] = acc
    return counts, push, pull, connectivity


def reference_rebalance(level, parts, n_parts, cap):
    """The rebalance that keeps its own pin counts and sums each move's
    connectivity loss afresh over the vertex's hyperedges."""
    n, pins, lam, vw, ve = level.n, level.pins, level.lam, level.vw, level.ve
    pw = [0] * n_parts
    for v, p in enumerate(parts):
        pw[p] += vw[v]
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


def random_vertex_weights(rng, n):
    """Small weights, all zero, or small weights with one heavy outlier."""
    mode = rng.randrange(4)
    if mode == 0:
        return [0] * n
    vw = [rng.randrange(0, 20) if mode == 1 else rng.choice((0, 1, 3, 40, 700)) for _ in range(n)]
    if mode == 3:
        vw[rng.randrange(n)] = 10**7
    return vw


def random_weighted_hypergraph(rng, max_n, min_n=3):
    n = rng.randrange(min_n, max_n + 1)
    pins = []
    for _ in range(rng.randrange(1, 3 * n)):
        size = rng.randrange(2, min(n, 6) + 1)
        pins.append(tuple(sorted(rng.sample(range(n), size))))
    return Hypergraph(
        n_vertices=n,
        pins=tuple(pins),
        weights=tuple(rng.randrange(1, 10**6) for _ in pins),
        vertex_weights=tuple(random_vertex_weights(rng, n)),
    )


def sweep_hypergraph(kind, index, n_vertices=40):
    """The hypergraph a reference-sweep sample partitions; at 120 vertices,
    the one that benchmark workload partition-large partitions in round
    ``index`` at seed 0."""
    cfg = SweepConfig(n_vertices=n_vertices)
    seed = sample_seed(cfg.master_seed, index)
    dag = orient(generate(generator_config(cfg, kind, seed)))
    return build_hypergraph(elaborate(dag, cfg.elaboration, seed))


def test_refine_matches_reference_on_random_levels():
    rng = random.Random(0x5EF1)
    bands = (
        (1500, 3, 40, 12, (1, 4, _MAX_PASSES)),
        # partition-large's shape: long kept prefixes replayed over many passes
        (150, 60, 129, 16, (_MAX_PASSES,)),
    )
    for cases, min_n, max_n, max_parts, pass_choices in bands:
        for _ in range(cases):
            h = random_weighted_hypergraph(rng, max_n, min_n)
            n = h.n_vertices
            vw = list(h.vertex_weights)
            level = _Level(n, [list(p) for p in h.pins], list(h.weights), vw, list(range(n)))
            n_parts = rng.randrange(2, min(n, max_parts) + 1)
            parts = [rng.randrange(n_parts) for _ in range(n)]
            total = sum(vw)
            cap = math.floor(
                rng.choice(
                    (
                        float(rng.randrange(0, total + 1)),
                        rng.uniform(0.0, 1.5 * total / n_parts),
                        rng.uniform(1.0, 3.7) * total / n_parts,
                        max(max(vw), total / n_parts),
                    )
                )
            )
            passes = rng.choice(pass_choices)
            ref_parts, new_parts = list(parts), list(parts)
            lam, history = reference_refine(level, ref_parts, n_parts, cap, passes)
            assert _refine(level, new_parts, n_parts, cap, passes) == history, (h, parts, cap)
            assert history[-1] == lam
            assert new_parts == ref_parts


def test_tables_match_reference_on_random_levels():
    rng = random.Random(0x7AB5)
    levels = []
    for _ in range(300):
        h = random_weighted_hypergraph(rng, 129)
        levels.append((h.n_vertices, list(h.pins), list(h.weights)))
    # at the weight bound every bit of float64's mantissa is in use
    heavy = [rng.randrange(2**46, 2**47) for _ in range(40)]
    heavy.append(2**53 - 1 - sum(heavy))
    h = Hypergraph(
        n_vertices=90,
        pins=tuple(tuple(sorted(rng.sample(range(90), rng.randrange(2, 7)))) for _ in heavy),
        weights=tuple(heavy),
        vertex_weights=(1,) * 90,
    )
    levels.append((h.n_vertices, list(h.pins), list(h.weights)))
    levels.append((7, [], []))  # every hyperedge contracted away
    for n, pins, lam in levels:
        level = _Level(n, [list(p) for p in pins], lam, [1] * n, list(range(n)))
        for _ in range(3):
            n_parts = rng.randrange(2, min(n, 16) + 1)
            parts = [rng.randrange(n_parts) for _ in range(n)]
            # repr also tells an int from an equal float
            assert repr(_tables(level, parts, n_parts)) == repr(reference_tables(level, parts, n_parts)), (n, pins, lam, parts)


def test_rebalance_matches_reference_on_random_levels():
    rng = random.Random(0x4EBA)
    moved = 0
    for _ in range(600):
        h = random_weighted_hypergraph(rng, 60)
        n = h.n_vertices
        vw = list(h.vertex_weights)
        level = _Level(n, [list(p) for p in h.pins], list(h.weights), vw, list(range(n)))
        n_parts = rng.randrange(2, min(n, 12) + 1)
        # most starts crowd a few parts, so they are over the cap
        crowded = rng.randrange(1, n_parts + 1)
        parts = [rng.randrange(crowded) for _ in range(n)]
        total = sum(vw)
        cap = math.floor(
            rng.choice((total / n_parts, rng.uniform(1.0, 1.5) * total / n_parts, max(max(vw), total / n_parts)))
        )
        ref_parts, new_parts = list(parts), list(parts)
        reference_rebalance(level, ref_parts, n_parts, cap)
        tables = _rebalance(level, new_parts, n_parts, cap)
        assert new_parts == ref_parts, (h, parts, cap)
        # repr also tells an int from an equal float
        assert repr(tables) == repr(reference_tables(level, new_parts, n_parts)), (h, parts, cap)
        moved += new_parts != parts
    assert moved > 300


def test_partition_kernel_calls_bounded(monkeypatch):
    """The gain-table kernel runs about 50 us a call, a fixed numpy cost; a
    change that adds a call per rebalance (or per pass) shows up here as
    a count, before it shows up as time.  The bound is the count with
    ``_refine`` taking the tables that ``_rebalance`` hands it; without
    that hand-off each rebalance adds a call (1,840 here).

    ``_refine`` calls are bounded too: where a finer level follows, only
    the winning coarsest-level start is refined.  Refining every start
    first, as a hypergraph that does not coarsen still does, makes 975
    calls here."""
    calls = {"_tables": 0, "_refine": 0}

    def counting(name):
        layer = getattr(hypart, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return layer(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(hypart, name, counting(name))
    cfg = SweepConfig()
    for kind in cfg.generators:
        for index in range(2):
            h = sweep_hypergraph(kind, index)
            for n_parts in cfg.units:
                for i, eps in enumerate(cfg.eps_grid):
                    partition(h, n_parts, eps, seed=i)
    assert calls["_tables"] <= 1662, calls
    assert calls["_refine"] <= 473, calls


def test_score_path_reuses_hierarchies(monkeypatch):
    """``concurrency_score`` builds the hypergraph afresh at each unit
    count, and the rebuilt, equal hypergraph must find the levels that
    ``_coarsen``'s cache holds for it.  The bound is the count with that
    reuse; if an equal hypergraph missed the cache, each unit count would
    coarsen again."""
    calls = 0
    match_level = hypart._match_level

    def counted(*args):
        nonlocal calls
        calls += 1
        return match_level(*args)

    monkeypatch.setattr(hypart, "_match_level", counted)
    hypart._coarsen.cache_clear()
    cfg = SweepConfig()
    for kind in cfg.generators:
        for index in range(2):
            sweep.run_sample(cfg, kind, index)
    hypart._coarsen.cache_clear()
    assert calls <= 51


def test_partition_matches_reference_refiner(monkeypatch):
    rng = random.Random(0x5EF2)
    cases = []
    for _ in range(60):
        h = random_weighted_hypergraph(rng, 129)
        n_parts = rng.randrange(2, min(h.n_vertices, 16) + 1)
        for eps in (1.0, rng.uniform(1.0, 1.2), rng.uniform(1.0, 3.7)):
            cases.append((h, n_parts, eps, rng.randrange(2**32)))
    cfg = SweepConfig()
    for kind in cfg.generators:
        for index in range(2):
            h = sweep_hypergraph(kind, index)
            for n_parts in cfg.units:
                for eps in cfg.eps_grid:
                    cases.append((h, n_parts, eps, rng.randrange(2**32)))
    got = [partition(*case) for case in cases]
    # _refine returns its history alone, whose last entry is the oracle's lam;
    # the oracle builds its own tables, so the ones _rebalance hands on are dropped
    monkeypatch.setattr(
        hypart, "_refine", lambda *args, tables=None, **kwargs: reference_refine(*args, **kwargs)[1]
    )
    for case, p in zip(cases, got):
        assert partition(*case) == p, case


def test_tolerance_at_or_above_part_count_admits_every_move():
    """At eps = k the cap is the total weight, so no larger tolerance,
    up to the largest finite float, changes the partition."""
    rng = random.Random(0xCA9)
    for _ in range(40):
        h = random_weighted_hypergraph(rng, 60)
        k = rng.randrange(2, min(h.n_vertices, 12) + 1)
        seed = rng.randrange(2**32)
        want = partition(h, k, k, seed)
        for eps in (k + rng.random(), rng.uniform(k, 1e6), 1e308):
            got = partition(h, k, eps, seed)
            assert (got.parts, got.lam) == (want.parts, want.lam), (h, k, eps)


def reference_match_level(level, weight_cap):
    """Greedy matching on the heavy-edge rating, where each hyperedge e of
    two pins or more adds ``lam[e] / (|e| - 1)`` to each pair of its pins,
    summed over a vertex's hyperedges in ``ve`` order.  It sorts each
    vertex's candidates by id and keeps the first with the highest rating,
    then a two-hop pass: the vertices left unmatched are listed, in the
    same order, under the neighbour of highest rating with them (the
    first by id), and each list is walked two at a time, keeping the
    later vertex of a pair over the cap."""
    n, pins, lam, vw = level.n, level.pins, level.lam, level.vw
    ve = level.ve

    def rating(e):
        return lam[e] / (len(pins[e]) - 1)

    mate = [-1] * n
    matched = 0
    order = sorted(range(n), key=lambda v: (-vw[v], v))
    for v in order:
        if mate[v] != -1:
            continue
        shared = {}
        for e in ve[v]:
            for u in pins[e]:
                if u != v and mate[u] == -1:
                    shared[u] = shared.get(u, 0) + rating(e)
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
    lists = {}
    for v in [v for v in order if mate[v] == -1]:
        weight = {}
        for e in ve[v]:
            for u in set(pins[e]) - {v}:
                weight[u] = weight.get(u, 0) + rating(e)
        if weight:
            top = max(weight.values())
            hub = sorted(u for u, s in weight.items() if s == top)[0]
            lists.setdefault(hub, []).append(v)
    for members in lists.values():
        waiting = None
        for v in members:
            if waiting is not None and vw[waiting] + vw[v] <= weight_cap:
                mate[v], mate[waiting] = waiting, v
                matched += 1
                waiting = None
            else:
                waiting = v
    if matched == 0:
        return None
    hint = level.hint
    coarse_of = [-1] * n
    chint = [] if hint else None
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
    merged = {}
    for pin, w_e in zip(pins, lam):
        cp = tuple(sorted({coarse_of[v] for v in pin}))
        if len(cp) > 1:
            merged[cp] = merged.get(cp, 0) + w_e
    return _Level(next_id, [list(p) for p in merged], list(merged.values()), cvw, chint, fine_map=coarse_of)


def reference_coarsen(h, n_parts):
    """A fresh hierarchy for one part count, sharing nothing."""
    levels = [
        _Level(
            h.n_vertices,
            [list(p) for p in h.pins],
            list(h.weights),
            list(h.vertex_weights),
            list(h.order_hint) if h.order_hint is not None else list(range(h.n_vertices)),
        )
    ]
    coarse_cap = max(sum(h.vertex_weights) / n_parts, float(max(h.vertex_weights, default=0)))
    while levels[-1].n > max(2 * n_parts, 12):
        nxt = reference_match_level(levels[-1], coarse_cap)
        if nxt is None:
            break
        levels.append(nxt)
    return levels


def light_vertex_hypergraph(rng):
    """Weights 1 to 3 on few vertices, so that an ideal part's weight
    often equals a pair weight that a larger part count's cap excluded."""
    h = random_weighted_hypergraph(rng, 40, 13)
    n = h.n_vertices
    return Hypergraph(n, h.pins, h.weights, tuple(rng.randrange(1, 4) for _ in range(n)))


def test_coarsen_shared_across_part_counts_matches_reference():
    rng = random.Random(0xC0A5)
    graphs = [random_weighted_hypergraph(rng, 129) for _ in range(100)]
    graphs += [light_vertex_hypergraph(rng) for _ in range(100)]
    cfg = SweepConfig()
    graphs += [sweep_hypergraph(kind, index) for kind in cfg.generators for index in range(3)]
    # partition-large's shape: half of er's nets span more than 8 pins, and
    # dp's input net most vertices; the 40-vertex sweep graphs rarely do
    graphs += [sweep_hypergraph(kind, index, 120) for kind in ("er", "dp") for index in range(2)]
    for h in graphs:
        ks = list(range(2, min(h.n_vertices, 16) + 1))
        for _ in range(2):
            rng.shuffle(ks)
            hypart._coarsen.cache_clear()
            for k in ks:
                # the reference takes the same cap unfloored
                got = hypart._hierarchy(h, k, max(sum(h.vertex_weights) // k, max(h.vertex_weights)))
                want = reference_coarsen(h, k)
                assert len(got) == len(want), (h, k)
                for a, b in zip(got, want):
                    assert (a.n, a.pins, a.lam, a.vw, a.hint, a.fine_map) == (
                        b.n, b.pins, b.lam, b.vw, b.hint, b.fine_map
                    ), (h, k)
    hypart._coarsen.cache_clear()


def hierarchy_sizes(h, k):
    """Vertex counts of ``h``'s coarsening hierarchy for ``k`` parts, built fresh."""
    hypart._coarsen.cache_clear()
    levels = hypart._hierarchy(h, k, sum(h.vertex_weights) // k)
    hypart._coarsen.cache_clear()
    return [level.n for level in levels]


@pytest.mark.parametrize("k", [2, 4])
def test_star_of_leaves_coarsens_in_logarithmically_many_levels(k):
    # the dp shape: an input feeds 64 leaves over one net that rates each
    # pair of them low, and every leaf feeds the hub alone
    leaves = range(1, 65)
    hub = 65
    n = hub + 1
    pins = ((0, *leaves),) + tuple((v, hub) for v in leaves)
    h = Hypergraph(n, pins, (1000,) * len(pins), (1,) * n)
    sizes = hierarchy_sizes(h, k)
    assert len(sizes) <= math.log2(n) + 2, sizes
    assert all(a - b > 1 for a, b in zip(sizes, sizes[1:])), sizes


@pytest.mark.parametrize("k", [2, 4])
def test_large_nets_coarsen_in_logarithmically_many_levels(k):
    # the er shape at 120 vertices: every net spans 10 pins, a window of
    # consecutive ids, so each pair of neighbours shares several nets
    n = 64
    pins = tuple(tuple(sorted((s + i) % n for i in range(10))) for s in range(0, n, 3))
    h = Hypergraph(n, pins, (1000,) * len(pins), (1,) * n)
    sizes = hierarchy_sizes(h, k)
    assert sizes[-1] <= 12, sizes
    assert len(sizes) <= math.log2(n) + 2, sizes


def test_one_pin_net_is_not_rated():
    # a one-pin net shares no pair, so coarsening must not divide by |e| - 1 = 0 on it
    chain = chain_hypergraph(20, lam=5)
    h = Hypergraph(20, chain.pins + ((0,),), chain.weights + (5,), chain.vertex_weights)
    assert partition(h, 2, 1.1).lam == 5
