"""Overlap ratio, the composite score and the epsilon sweep."""

from __future__ import annotations

import math
import random

import pytest

from concnas.archmodel import ElaborationConfig, elaborate
from concnas.dagify import orient
from concnas.randgraph import GeneratorConfig, generate
from concnas.hypart import Partition, build_hypergraph, partition
from concnas.rng import KEY_PARTITION, derived_seed
from concnas.score import (
    DEFAULT_EPS_GRID,
    DEFAULT_WEIGHTS,
    check_settings,
    concurrency_score,
    cs_value,
    overlap_ratio,
    write_metrics_csv,
)
from helpers import empty_graph, path_graph, random_small_graph


def test_eta_of_chain_equals_unit_count():
    dag = orient(path_graph(10))
    assert dag.n_vertices == 12
    for n in (1, 2, 4, 6, 12):
        assert overlap_ratio(dag, n) == pytest.approx(float(n))


def test_eta_of_parallel_blocks():
    dag = orient(empty_graph(10))
    assert overlap_ratio(dag, 4) == pytest.approx(1.0)
    for k in (3, 5, 8):
        star = orient(empty_graph(k))
        for n in (2, 4, 8):
            assert overlap_ratio(star, n) == pytest.approx(3 * n / (k + 2))


def test_eta_rejects_zero_units():
    dag = orient(path_graph(3))
    with pytest.raises(ValueError):
        overlap_ratio(dag, 0)


def test_cs_pinned_value():
    # 1.2 * 4**1.5 * 2 = 19.2
    assert cs_value(1.2, 4.0, 2.0) == pytest.approx(19.2 ** (1.0 / 3.0), abs=1e-12)


def test_cs_identity_point():
    assert cs_value(1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_cs_zero_communication_scores_zero():
    assert cs_value(1.7, 0.0, 9.0) == 0.0


def test_cs_rejects_negative_factors():
    with pytest.raises(ValueError):
        cs_value(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        cs_value(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        cs_value(1.0, 1.0, -2.0)


def test_cs_monotone_in_each_factor():
    rng = random.Random(64)
    for _ in range(1000):
        delta = rng.uniform(1.0, 3.0)
        lam = rng.uniform(0.01, 50.0)
        eta = rng.uniform(0.1, 10.0)
        base = cs_value(delta, lam, eta)
        assert cs_value(delta * 1.5, lam, eta) > base
        assert cs_value(delta, lam * 1.5, eta) > base
        assert cs_value(delta, lam, eta * 1.5) > base


@pytest.mark.parametrize(
    "factors, weights",
    [
        pytest.param((1.5, 25.5, 4.0), (0.5, 1e308, 1.0), id="power-overflows"),
        pytest.param((1.5, 1e200, 1e200), (1.0, 1.0, 1.0), id="product-overflows"),
    ],
)
def test_cs_rejects_weights_that_overflow(factors, weights):
    with pytest.raises(ValueError, match=r"^weights \("):
        cs_value(*factors, weights=weights)


def test_cs_custom_weights():
    # with all weights 1 the score is the plain geometric mean
    val = cs_value(2.0, 4.0, 8.0, weights=(1.0, 1.0, 1.0))
    assert val == pytest.approx(4.0, rel=1e-12)


def roomy_graph(rng, max_n=16):
    """A draw with enough vertices to host four partition parts."""
    while True:
        g = random_small_graph(rng, max_n=max_n)
        if g.n_vertices >= 2:
            return g


def test_report_internal_consistency():
    rng = random.Random(1212)
    for _ in range(60):
        g = roomy_graph(rng, max_n=18)
        arch = elaborate(orient(g), seed=rng.randrange(2**32))
        n = rng.randrange(2, 5)
        r = concurrency_score(arch, n, seed=rng.randrange(2**32))
        assert r.u_c == min(arch.out_bytes[u] for u, _ in arch.dag.edges)
        assert r.eta == overlap_ratio(arch.dag, n)
        assert [p.eps for p in r.partitions] == list(DEFAULT_EPS_GRID)
        assert len(r.cs) == len(r.partitions)
        for p, cs in zip(r.partitions, r.cs):
            assert r.lam_norm(p) == p.lam / (r.u_c * n)
            assert cs == cs_value(p.imbalance, p.lam / (r.u_c * n), r.eta, r.weights)
        pool = [i for i, p in enumerate(r.partitions) if not p.best_effort] or range(len(r.partitions))
        assert r.best is r.partitions[r.best_index]
        assert r.best_index in pool
        assert r.best_cs == r.cs[r.best_index] == min(r.cs[i] for i in pool)
        assert all(r.best_cs <= r.cs[i] for i in pool)


def test_best_record_is_feasible_when_any_is():
    rng = random.Random(4242)
    feasible_grids = 0
    for _ in range(80):
        g = roomy_graph(rng, max_n=24)
        arch = elaborate(orient(g), seed=rng.randrange(2**32))
        r = concurrency_score(arch, rng.randrange(2, 5), seed=rng.randrange(2**32))
        feasible = [cs for p, cs in zip(r.partitions, r.cs) if not p.best_effort]
        if feasible:
            feasible_grids += 1
            assert not r.best.best_effort
            assert r.best_cs == min(feasible)
    assert feasible_grids > 60

    # documented fallback: when no grid point meets its cap, the minimum
    # runs over the whole grid
    g = generate(GeneratorConfig(kind="ba", n_vertices=5, seed=3953131384, m=2))
    seed = 1187452441
    r = concurrency_score(elaborate(orient(g), seed=seed), 4, seed=seed)
    assert all(p.best_effort for p in r.partitions)
    assert len(set(r.cs)) > 1
    assert r.best_cs == min(r.cs)


def test_score_deterministic():
    rng = random.Random(5)
    for _ in range(20):
        g = roomy_graph(rng)
        arch = elaborate(orient(g), seed=9)
        assert concurrency_score(arch, 4, seed=3) == concurrency_score(arch, 4, seed=3)


def test_score_invariant_under_element_width():
    # doubling bytes per element scales lam and u_c together
    rng = random.Random(2323)
    for _ in range(100):
        g = roomy_graph(rng)
        seed = rng.randrange(2**32)
        narrow = elaborate(orient(g), ElaborationConfig(bytes_per_element=4), seed)
        wide = elaborate(orient(g), ElaborationConfig(bytes_per_element=8), seed)
        rn = concurrency_score(narrow, 4, seed=seed)
        rw = concurrency_score(wide, 4, seed=seed)
        assert rw.u_c == 2 * rn.u_c
        assert rw.best.lam == 2 * rn.best.lam
        assert rw.best_cs == pytest.approx(rn.best_cs, rel=1e-12)


def test_element_width_preserves_ranking():
    rng = random.Random(77)
    pairs = []
    while len(pairs) < 40:
        g1 = roomy_graph(rng)
        g2 = roomy_graph(rng)
        pairs.append((g1, g2))
    for g1, g2 in pairs:
        ranks = []
        for bpe in (4, 8):
            a1 = elaborate(orient(g1), ElaborationConfig(bytes_per_element=bpe), 1)
            a2 = elaborate(orient(g2), ElaborationConfig(bytes_per_element=bpe), 1)
            c1 = concurrency_score(a1, 4, seed=1).best_cs
            c2 = concurrency_score(a2, 4, seed=1).best_cs
            ranks.append(math.copysign(1, c1 - c2) if c1 != c2 else 0)
        assert ranks[0] == ranks[1]


def test_longer_grid_never_hurts():
    """A longer grid never raises CS once the short grid has a feasible
    point.  Without one, a feasible point found by the longer grid is
    chosen even when its CS is above the short grid's infeasible minimum."""
    rng = random.Random(31337)
    for _ in range(100):
        g = roomy_graph(rng)
        arch = elaborate(orient(g), seed=rng.randrange(2**32))
        seed = rng.randrange(2**32)
        short = concurrency_score(arch, 3, eps_grid=DEFAULT_EPS_GRID[:2], seed=seed)
        full = concurrency_score(arch, 3, eps_grid=DEFAULT_EPS_GRID, seed=seed)
        assert full.partitions[:2] == short.partitions
        assert full.cs[:2] == short.cs
        if any(not p.best_effort for p in short.partitions):
            assert full.best_cs <= short.best_cs
        elif any(not p.best_effort for p in full.partitions):
            assert not full.best.best_effort
        else:
            assert full.best_cs <= short.best_cs


def test_empty_grid_rejected():
    arch = elaborate(orient(path_graph(4)))
    with pytest.raises(ValueError):
        concurrency_score(arch, 2, eps_grid=())


@pytest.mark.parametrize(
    "settings",
    [
        pytest.param({"weights": (math.nan, 1.0, 1.0)}, id="weights-nan"),
        pytest.param({"weights": (-1.0, 1.0, 1.0)}, id="weights-negative"),
        pytest.param({"weights": (1.0, 2.0)}, id="two-weights"),
        pytest.param({"weights": (1.0, math.inf, 1.0)}, id="weights-inf"),
        pytest.param({"eps_grid": (1.1, 0.9)}, id="eps-below-1"),
        pytest.param({"eps_grid": (math.inf,)}, id="eps-inf"),
        pytest.param({"eps_grid": (math.nan,)}, id="eps-nan"),
    ],
)
def test_score_rejects_bad_settings(settings):
    arch = elaborate(orient(generate(GeneratorConfig(kind="er", n_vertices=10, p=0.3, seed=1))), seed=1)
    with pytest.raises(ValueError):
        concurrency_score(arch, 4, seed=1, **settings)
    with pytest.raises(ValueError):
        check_settings(settings.get("eps_grid", DEFAULT_EPS_GRID), settings.get("weights", DEFAULT_WEIGHTS))


def test_best_is_the_chosen_partition():
    """The report keeps each grid point's partition as ``partition`` returns it."""
    arch = elaborate(orient(generate(GeneratorConfig(kind="er", n_vertices=10, p=0.3, seed=1))), seed=1)
    h = build_hypergraph(arch)
    r = concurrency_score(arch, 4, seed=7)
    for i, eps in enumerate(DEFAULT_EPS_GRID):
        assert r.partitions[i] == partition(h, 4, eps, seed=derived_seed(7, KEY_PARTITION, i))
    assert isinstance(r.best, Partition)


def test_metrics_writers(tmp_path):
    arch = elaborate(orient(path_graph(6)), seed=2)
    r = concurrency_score(arch, 4, seed=2)

    cpath = tmp_path / "m.csv"
    write_metrics_csv(r, cpath)
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == len(r.partitions) + 1
    assert lines[0].split(",")[-1] == "chosen"
    chosen = [line for line in lines[1:] if line.endswith(",1")]
    assert len(chosen) == 1
