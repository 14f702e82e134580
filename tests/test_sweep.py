"""End-to-end sweep checks on deliberately small grids."""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from functools import cached_property

import pytest

from concnas import dagify, sweep
from concnas.sweep import (
    SweepConfig,
    generator_config,
    run_sweep,
    summarize,
    write_rows_csv,
)

SMALL = SweepConfig(
    generators=("er", "dp", "fb"),
    n_vertices=14,
    samples=4,
    units=(2, 4),
    master_seed=11,
    eps_grid=(1.1, 1.5),
)


@pytest.fixture(scope="module")
def small_rows():
    return run_sweep(SMALL)


def test_row_count_and_order(small_rows):
    assert len(small_rows) == 3 * 4 * 2
    expected = [
        (gen, sample, n)
        for gen in SMALL.generators
        for sample in range(SMALL.samples)
        for n in SMALL.units
    ]
    got = [(r["generator"], r["sample"], r["n_units"]) for r in small_rows]
    assert got == expected


def test_rows_are_reproducible(small_rows):
    assert run_sweep(SMALL) == small_rows


def test_worker_count_does_not_change_rows(small_rows):
    parallel = run_sweep(replace(SMALL, workers=2))
    assert parallel == small_rows


def test_row_fields_sane(small_rows):
    for r in small_rows:
        assert r["cs"] >= 0.0
        assert r["eta"] > 0.0
        assert 0.0 < r["speedup"] <= r["n_units"] + 1e-9
        # fb inserts one merge vertex per stage boundary before orientation
        merges = SMALL.fb_stages - 1 if r["generator"] == "fb" else 0
        assert r["dag_vertices"] == SMALL.n_vertices + merges + 2
        assert 0.0 <= r["entropy"] <= 1.0
        assert r["params"] > 0 and r["params_greedy"] > 0


def test_same_sample_shares_one_graph(small_rows):
    # both unit counts of a sample come from a single draw
    by_key = {}
    for r in small_rows:
        by_key.setdefault((r["generator"], r["sample"]), []).append(r)
    for group in by_key.values():
        assert len({r["edges"] for r in group}) == 1
        assert len({r["seed"] for r in group}) == 1


def test_summary_normalizes_latency_to_fb(small_rows):
    summary = summarize(small_rows)
    assert len(summary) == 3 * 2
    for s in summary:
        assert s["samples"] == SMALL.samples
        if s["generator"] == "fb":
            assert s["latency_vs_fb"] == pytest.approx(1.0)
        else:
            assert s["latency_vs_fb"] > 0.0


def test_summary_without_fb_leaves_nan():
    rows = run_sweep(
        SweepConfig(generators=("er",), n_vertices=10, samples=2, units=(2,), eps_grid=(1.2,))
    )
    summary = summarize(rows)
    assert len(summary) == 1
    assert math.isnan(summary[0]["latency_vs_fb"])


def test_generator_config_mapping():
    cfg = SMALL
    er = generator_config(cfg, "er", 7)
    assert (er.kind, er.p, er.seed) == ("er", cfg.er_p, 7)
    ba = generator_config(cfg, "ba", 7)
    assert (ba.kind, ba.m) == ("ba", cfg.ba_m)
    ws = generator_config(cfg, "ws", 7)
    assert (ws.kind, ws.k, ws.p) == ("ws", cfg.ws_k, cfg.ws_p)
    dp = generator_config(cfg, "dp", 7)
    assert (dp.kind, dp.p, dp.alpha, dp.beta) == ("dp", cfg.dp_p, cfg.dp_alpha, cfg.dp_beta)
    fb = generator_config(cfg, "fb", 7)
    assert (fb.kind, fb.k, fb.p, fb.stages) == ("fb", cfg.ws_k, cfg.ws_p, cfg.fb_stages)
    with pytest.raises(ValueError):
        generator_config(cfg, "grid", 7)


def test_units_above_smallest_dag_rejected():
    # an n-vertex graph orients to a DAG of at least n + 2 vertices
    with pytest.raises(ValueError, match="unit counts from 2 to 8"):
        SweepConfig(n_vertices=6, units=(9,), generators=("er",), samples=1)
    rows = run_sweep(SweepConfig(n_vertices=6, units=(8,), generators=("er",), samples=1))
    assert [r["n_units"] for r in rows] == [8]


def test_rows_csv_round_trip(small_rows, tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(small_rows, path)
    with open(path) as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(small_rows)
    # repr keeps full float precision on disk
    assert float(back[0]["cs"]) == small_rows[0]["cs"]
    assert back[0]["generator"] == small_rows[0]["generator"]

    empty = tmp_path / "none.csv"
    write_rows_csv([], empty)
    assert empty.read_text() == ""


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param({"samples": True, "workers": True}, id="samples-workers-True"),
        pytest.param({"samples": True}, id="samples-True"),
        pytest.param({"workers": True}, id="workers-True"),
        # True == 1.0 would pass the tolerance rule
        pytest.param({"eps_grid": (True, 1.2)}, id="eps-True"),
    ],
)
def test_sweep_config_rejects_bool_numbers(fields):
    with pytest.raises(ValueError, match="takes only"):
        SweepConfig(**fields)


def test_dag_structure_computed_once_per_sample(monkeypatch):
    """One sample derives each of its DAG's structures once, however many
    stages and unit counts read them."""
    calls = dict.fromkeys(("successors", "predecessors", "order", "depths", "longest_path"), 0)

    def counted(name):
        func = vars(dagify.ArchDag)[name].func

        def wrapper(dag):
            calls[name] += 1
            return func(dag)

        prop = cached_property(wrapper)
        prop.__set_name__(dagify.ArchDag, name)
        return prop

    for name in calls:
        monkeypatch.setattr(dagify.ArchDag, name, counted(name))
    rows = sweep.run_sample(SMALL, "er", 0)
    assert len(rows) == len(SMALL.units)
    assert calls == dict.fromkeys(calls, 1)
