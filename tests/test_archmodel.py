"""Cost model checks.

Pinned arithmetic first, then structural properties of staging and the
scaling front-end over seeded random DAGs.
"""

from __future__ import annotations

import json
import random

import pytest

from concnas.archmodel import (
    ArchFileError,
    BlockSpec,
    ElaborationConfig,
    arch_to_dict,
    block_flops,
    block_params,
    elaborate,
    flops_breakdown,
    read_arch,
    write_arch,
)
from concnas.dagify import orient
from concnas.randgraph import GeneratorConfig, generate
from helpers import path_graph, random_small_graph

FULL_MAP = BlockSpec("block", 32, 16, False, 32, 16, ((32, 16),), (0,), (0,))
UNIT_MAP = BlockSpec("block", 1, 1, False, 1, 1, ((1, 1),), (0,), (0,))


def test_core_conv_flops_at_full_map():
    parts = flops_breakdown(FULL_MAP)
    assert parts["depthwise"] == 147456
    assert parts["pointwise"] == 262144
    assert parts["depthwise"] + parts["pointwise"] == 409600


def test_core_conv_flops_unit_case():
    parts = flops_breakdown(UNIT_MAP)
    assert parts["depthwise"] + parts["pointwise"] == 10


def test_breakdown_sums_to_block_flops():
    rng = random.Random(14)
    for _ in range(300):
        g = random_small_graph(rng)
        arch = elaborate(orient(g), seed=rng.randrange(2**32))
        for v, b in enumerate(arch.blocks):
            assert sum(flops_breakdown(b).values()) == arch.vertex_flops[v]


def test_params_full_map():
    # 9*16 depthwise + 16*16 pointwise + 2*16 batchnorm + 1 sum scalar
    assert block_params(FULL_MAP) == 433


def test_params_unit_case():
    assert block_params(UNIT_MAP) == 13


def test_flops_monotone_in_output_channels():
    rng = random.Random(6)
    for _ in range(1000):
        s = 2 ** rng.randrange(0, 6)
        c_in = 2 ** rng.randrange(0, 6)
        c_out = 2 ** rng.randrange(0, 6)
        narrow = BlockSpec("block", s, c_out, False, s, c_in, ((s, c_in),), (0,), (0,))
        wide = BlockSpec("block", s, 2 * c_out, False, s, c_in, ((s, c_in),), (0,), (0,))
        assert block_flops(wide) > block_flops(narrow)


def test_synthetic_input_output_cost_nothing():
    arch = elaborate(orient(path_graph(4)), ElaborationConfig(staging="uniform"))
    dag = arch.dag
    assert arch.vertex_flops[dag.input_vertex] == 0
    assert arch.vertex_flops[dag.output_vertex] == 0
    assert arch.vertex_params[dag.input_vertex] == 0
    assert arch.vertex_params[dag.output_vertex] == 0


def test_edge_bytes_pinned_values():
    arch = elaborate(orient(path_graph(3)), ElaborationConfig(staging="uniform"))
    assert arch.out_bytes[arch.dag.input_vertex] == 65536

    staged = elaborate(orient(path_graph(3)), ElaborationConfig(staging="greedy"))
    # producer 0 staged once: output (16, 32), bytes halve
    assert staged.blocks[0].output_shape == (16, 32)
    assert staged.out_bytes[0] == 32768

    tiny = elaborate(orient(path_graph(2)), ElaborationConfig(1, 1, 1, "uniform"))
    assert tiny.out_bytes[0] == 4


def test_edge_bytes_follow_producer_shape():
    rng = random.Random(40)
    for _ in range(200):
        g = random_small_graph(rng)
        arch = elaborate(orient(g), seed=rng.randrange(2**32))
        for u, b in enumerate(arch.blocks):
            s, c = b.output_shape
            assert arch.out_bytes[u] == s * s * c * 4


def test_greedy_chain_trace():
    arch = elaborate(orient(path_graph(6)), ElaborationConfig(channel_limit=128, staging="greedy"))
    channels = [arch.blocks[v].channels for v in range(6)]
    spatial = [arch.blocks[v].spatial for v in range(6)]
    assert channels == [32, 64, 128, 128, 128, 128]
    assert spatial == [16, 8, 4, 4, 4, 4]


def test_uniform_mode_never_scales():
    rng = random.Random(90)
    for _ in range(200):
        g = random_small_graph(rng)
        arch = elaborate(orient(g), ElaborationConfig(staging="uniform"))
        for b in arch.blocks:
            assert b.channels == 16
            assert not b.staged
            assert all(p == 0 for p in b.scaling_proj)
            assert all(p == 0 for p in b.scaling_pools)


def test_shape_consistency_everywhere():
    rng = random.Random(0xABCD)
    # 12 and 224 are not powers of two: staging stops at 3 and 7
    for spatial in (32, 12, 224):
        for _ in range(1000):
            g = random_small_graph(rng)
            check_shapes(elaborate(orient(g), ElaborationConfig(spatial), rng.randrange(2**32)))


def check_shapes(arch):
    """Every block reconciles its inputs' shapes as the cost model says."""
    dag = arch.dag
    pred = dag.predecessors
    for v in dag.order:
        b = arch.blocks[v]
        if v == dag.input_vertex:
            continue
        shapes = tuple(arch.blocks[u].output_shape for u in sorted(pred[v]))
        assert b.input_shapes == shapes
        assert b.in_spatial == min(s for s, _ in shapes)
        assert b.in_channels == max(c for _, c in shapes)
        if v == dag.output_vertex:
            # the gather sink records shapes but reconciles nothing
            assert all(p == 0 for p in b.scaling_pools)
            assert all(p == 0 for p in b.scaling_proj)
            continue
        for (s, c), pools, proj in zip(shapes, b.scaling_pools, b.scaling_proj):
            assert s == b.in_spatial * (2 ** pools)
            assert proj == (b.in_channels if c < b.in_channels else 0)
        assert b.channels <= arch.elaboration.channel_limit
        assert b.spatial >= 1
        if b.staged:
            assert b.in_spatial % 2 == 0
            assert (b.spatial, b.channels) == (b.in_spatial // 2, 2 * b.in_channels)
        else:
            assert (b.spatial, b.channels) == (b.in_spatial, b.in_channels)


def test_staging_blocked_at_unit_spatial():
    arch = elaborate(orient(path_graph(5)), ElaborationConfig(1, 8, staging_prob=1.0), 3)
    assert arch.suppressed_stagings == 5
    assert all(not b.staged for b in arch.blocks)
    assert all(b.spatial == 1 for b in arch.blocks if b.kind == "block")


def test_staging_stops_at_odd_spatial():
    arch = elaborate(orient(path_graph(5)), ElaborationConfig(12, staging="greedy"))
    assert [arch.blocks[v].spatial for v in range(5)] == [6, 3, 3, 3, 3]
    assert arch.suppressed_stagings == 3


def test_staging_stops_at_channel_limit():
    arch = elaborate(orient(path_graph(12)), ElaborationConfig(channel_limit=64, staging="greedy"))
    assert max(b.channels for b in arch.blocks) == 64


def test_elaborate_rejects_bad_arguments():
    for bad in (
        {"staging": "aggressive"},
        {"input_spatial": 0},
        {"channel_limit": 8},
        {"staging_prob": 1.5},
        {"input_spatial": True},
        {"bytes_per_element": True},
        {"input_spatial": True, "input_channels": True, "channel_limit": True, "bytes_per_element": True},
    ):
        with pytest.raises(ValueError):
            ElaborationConfig(**bad)


def test_elaboration_deterministic_per_seed():
    dag = orient(generate(GeneratorConfig(kind="dp", n_vertices=30, seed=4, p=0.4, alpha=2.0, beta=2.0)))
    prob = ElaborationConfig(staging="probabilistic")
    a = elaborate(dag, prob, 11)
    b = elaborate(dag, prob, 11)
    assert a == b
    c = elaborate(dag, prob, 12)
    assert a.total_params != c.total_params or a.blocks != c.blocks


def test_greedy_params_dominate_probabilistic_on_average():
    diffs = []
    for seed in range(100):
        dag = orient(generate(GeneratorConfig(kind="er", n_vertices=40, seed=seed, p=0.12)))
        greedy = elaborate(dag, ElaborationConfig(staging="greedy"), seed).total_params
        prob = elaborate(dag, ElaborationConfig(staging="probabilistic"), seed).total_params
        diffs.append(greedy - prob)
    assert sum(diffs) / len(diffs) > 0


def test_arch_round_trip(tmp_path):
    rng = random.Random(75)
    for i in range(100):
        g = random_small_graph(rng)
        arch = elaborate(orient(g), seed=rng.randrange(2**32))
        path = tmp_path / f"a{i}.json"
        write_arch(arch, path)
        back = read_arch(path)
        assert back.blocks == arch.blocks
        assert back.vertex_flops == arch.vertex_flops
        assert back.vertex_params == arch.vertex_params
        assert back.out_bytes == arch.out_bytes
        assert back.total_params == arch.total_params


def test_read_arch_rejects_files_that_differ_from_their_rebuild(tmp_path):
    doc = arch_to_dict(elaborate(orient(path_graph(4)), seed=3))
    tampers = (
        lambda d: d["blocks"][1].update(flops=d["blocks"][1]["flops"] + 1),
        lambda d: d["blocks"][1].update(channels=str(d["blocks"][1]["channels"])),
        lambda d: d["edge_bytes"].pop(),
        lambda d: d["elaboration"].update(suppressed_stagings=1),
        lambda d: d["elaboration"].update(channel_limit=8),
        lambda d: d["kinds"].__setitem__(0, "widget"),
        lambda d: d.pop("n_dag_vertices"),
        lambda d: d.update(extra=1),
    )
    for i, tamper in enumerate(tampers):
        bad = json.loads(json.dumps(doc))
        tamper(bad)
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ArchFileError):
            read_arch(path)
