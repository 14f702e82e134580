"""Overlap ratio, the composite score and the epsilon sweep."""

from __future__ import annotations

import json
import math
import random

import pytest

from concnas.archmodel import elaborate
from concnas.dagify import orient
from concnas.randgraph import GeneratorConfig, generate
from concnas.score import (
    DEFAULT_EPS_GRID,
    concurrency_score,
    cs_value,
    overlap_ratio,
    write_metrics_csv,
    write_metrics_json,
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
        arch = elaborate(orient(g), staging="probabilistic", seed=rng.randrange(2**32))
        n = rng.randrange(2, 5)
        r = concurrency_score(arch, n, seed=rng.randrange(2**32))
        assert r.u_c == min(arch.per_edge_bytes.values())
        assert r.eta == overlap_ratio(arch.dag, n)
        for rec in r.records:
            assert rec.lam_norm == pytest.approx(rec.lam / (r.u_c * n))
            assert rec.cs == pytest.approx(
                cs_value(rec.imbalance, rec.lam_norm, r.eta, r.weights)
            )
        pool = [rec for rec in r.records if not rec.best_effort] or r.records
        assert r.best_cs == min(rec.cs for rec in pool)
        assert all(r.best_cs <= rec.cs for rec in pool)


def test_best_record_is_feasible_when_any_is():
    rng = random.Random(4242)
    feasible_grids = 0
    for _ in range(80):
        g = roomy_graph(rng, max_n=24)
        arch = elaborate(orient(g), staging="probabilistic", seed=rng.randrange(2**32))
        r = concurrency_score(arch, rng.randrange(2, 5), seed=rng.randrange(2**32))
        feasible = [rec.cs for rec in r.records if not rec.best_effort]
        if feasible:
            feasible_grids += 1
            assert not r.best.best_effort
            assert r.best_cs == min(feasible)
    assert feasible_grids > 60

    # documented fallback: when no grid point meets its cap, the minimum
    # runs over the whole grid
    g = generate(GeneratorConfig(kind="ba", n_vertices=5, seed=3953131384, m=2))
    seed = 1187452441
    r = concurrency_score(elaborate(orient(g), staging="probabilistic", seed=seed), 4, seed=seed)
    assert all(rec.best_effort for rec in r.records)
    assert len({rec.cs for rec in r.records}) > 1
    assert r.best_cs == min(rec.cs for rec in r.records)


def test_score_deterministic():
    rng = random.Random(5)
    for _ in range(20):
        g = roomy_graph(rng)
        arch = elaborate(orient(g), staging="probabilistic", seed=9)
        assert concurrency_score(arch, 4, seed=3) == concurrency_score(arch, 4, seed=3)


def test_score_invariant_under_element_width():
    # doubling bytes per element scales lam and u_c together
    rng = random.Random(2323)
    for _ in range(100):
        g = roomy_graph(rng)
        seed = rng.randrange(2**32)
        narrow = elaborate(orient(g), staging="probabilistic", seed=seed, bytes_per_element=4)
        wide = elaborate(orient(g), staging="probabilistic", seed=seed, bytes_per_element=8)
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
            a1 = elaborate(orient(g1), staging="probabilistic", seed=1, bytes_per_element=bpe)
            a2 = elaborate(orient(g2), staging="probabilistic", seed=1, bytes_per_element=bpe)
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
        arch = elaborate(orient(g), staging="probabilistic", seed=rng.randrange(2**32))
        seed = rng.randrange(2**32)
        short = concurrency_score(arch, 3, eps_grid=DEFAULT_EPS_GRID[:2], seed=seed)
        full = concurrency_score(arch, 3, eps_grid=DEFAULT_EPS_GRID, seed=seed)
        assert full.records[:2] == short.records
        if any(not r.best_effort for r in short.records):
            assert full.best_cs <= short.best_cs
        elif any(not r.best_effort for r in full.records):
            assert not full.best.best_effort
        else:
            assert full.best_cs <= short.best_cs


def test_empty_grid_rejected():
    arch = elaborate(orient(path_graph(4)))
    with pytest.raises(ValueError):
        concurrency_score(arch, 2, eps_grid=())


def test_metrics_writers(tmp_path):
    arch = elaborate(orient(path_graph(6)), staging="probabilistic", seed=2)
    r = concurrency_score(arch, 4, seed=2)

    cpath = tmp_path / "m.csv"
    write_metrics_csv(r, cpath)
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == len(r.records) + 1
    assert lines[0].split(",")[-1] == "chosen"
    chosen = [line for line in lines[1:] if line.endswith(",1")]
    assert len(chosen) == 1

    jpath = tmp_path / "m.json"
    write_metrics_json(r, jpath)
    doc = json.loads(jpath.read_text())
    assert doc["best_cs"] == r.best_cs
    assert len(doc["records"]) == len(r.records)
