"""Generator behaviour: pinned small cases plus seeded Monte-Carlo checks.

Distribution tests draw 1000 seeds and compare the sample mean against
its binomial model at three standard errors of the mean.
"""

from __future__ import annotations

import json
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from concnas import randgraph
from concnas.randgraph import (
    GeneratorConfig,
    UndirectedGraph,
    _ws_edges,
    dp_edge_probability,
    fb_stage_ranges,
    generate,
    generate_ba,
    generate_dp,
    generate_er,
    generate_fb,
    generate_ws,
    graph_from_dict,
    graph_to_dict,
    ring_distance,
)
from helpers import random_small_graph

N_SEEDS = 1000


def assert_well_formed(g):
    seen = set()
    for u, v in g.edges:
        assert 0 <= u < v < g.n_vertices, f"bad endpoint pair {(u, v)}"
        assert (u, v) not in seen, f"duplicate edge {(u, v)}"
        seen.add((u, v))


def mean_ring_distance(graphs):
    total, count = 0, 0
    for g in graphs:
        for u, v in g.edges:
            total += ring_distance(g.n_vertices, u, v)
            count += 1
    return total / count


class TestRingDistance:
    def test_adjacent_pair(self):
        assert ring_distance(8, 0, 1) == 1

    def test_antipodal_pair_is_half_n(self):
        assert ring_distance(8, 0, 4) == 4

    def test_wraparound_is_shorter_side(self):
        assert ring_distance(7, 0, 4) == 3

    def test_matches_closed_form(self):
        rng = random.Random(11)
        for _ in range(N_SEEDS):
            n = rng.randrange(2, 64)
            u, v = rng.sample(range(n), 2)
            gap = abs(u - v)
            assert ring_distance(n, u, v) == min(gap, n - gap)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            ring_distance(8, 3, 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ring_distance(8, 0, 8)


class TestDpEdgeProbability:
    def test_direct_substitution(self):
        assert dp_edge_probability(0.9, 0.5, 1.0, 2) == pytest.approx(0.225, abs=1e-15)

    def test_clamped_to_one(self):
        assert dp_edge_probability(3.0, 1.0, 1.0, 5) == 1.0

    def test_beta_zero_removes_distance(self):
        # exponent collapses to 0, leaving the constant alpha for every d
        for d in (1, 3, 9):
            assert dp_edge_probability(0.37, 0.9, 0.0, d) == pytest.approx(0.37)
        assert len(generate_dp(9, 0.5, 1.0, 0.0, seed=4).edges) == 36


def test_er_full_probability_gives_complete_graph():
    g = generate_er(8, 1.0, seed=5)
    assert len(g.edges) == 28


def test_er_zero_probability_gives_no_edges():
    assert generate_er(8, 0.0, seed=5).edges == ()


def test_er_rejects_bad_probability():
    with pytest.raises(ValueError):
        generate_er(8, 1.5, seed=0)
    with pytest.raises(ValueError):
        generate_er(8, -0.1, seed=0)


def test_er_edge_count_tracks_binomial_mean():
    # n=40, p=0.2: Binomial(780, 0.2), mean 156
    total = sum(len(generate_er(40, 0.2, s).edges) for s in range(N_SEEDS))
    sigma = math.sqrt(780 * 0.2 * 0.8)
    assert abs(total / N_SEEDS - 156.0) <= 3 * sigma / math.sqrt(N_SEEDS)


def test_er_deterministic_per_seed():
    assert generate_er(30, 0.3, seed=17) == generate_er(30, 0.3, seed=17)
    assert generate_er(30, 0.3, seed=17).edges != generate_er(30, 0.3, seed=18).edges


def test_ba_small_tree():
    g = generate_ba(3, 1, seed=2)
    assert len(g.edges) == 2
    assert_well_formed(g)
    # 3 vertices, 2 edges, no duplicates: connected iff every vertex appears
    touched = {v for e in g.edges for v in e}
    assert touched == {0, 1, 2}


def test_ba_edge_count_exact():
    rng = random.Random(99)
    for _ in range(N_SEEDS):
        n = rng.randrange(2, 30)
        m = rng.randrange(1, n)
        g = generate_ba(n, m, rng.randrange(2**32))
        assert len(g.edges) == m * (n - m)
        assert_well_formed(g)


def test_ba_rejects_m_out_of_range():
    with pytest.raises(ValueError):
        generate_ba(10, 10, seed=0)
    with pytest.raises(ValueError):
        generate_ba(10, 0, seed=0)


def test_ba_hubs_beat_er_at_matched_density():
    # preferential attachment should concentrate degree
    def max_degree(g):
        c = Counter()
        for u, v in g.edges:
            c[u] += 1
            c[v] += 1
        return max(c.values())

    reps = 300
    ba = sum(max_degree(generate_ba(40, 7, s)) for s in range(reps)) / reps
    p_match = 231 / 780
    er = sum(max_degree(generate_er(40, p_match, s)) for s in range(reps)) / reps
    assert ba > er


def test_ws_zero_probability_is_exact_lattice():
    g = generate_ws(20, 4, 0.0, seed=3)
    want = set()
    for v in range(20):
        for i in (1, 2):
            want.add(tuple(sorted((v, (v + i) % 20))))
    assert set(g.edges) == want
    assert len(g.edges) == 40


def test_ws_full_rewiring_keeps_count():
    for s in range(50):
        g = generate_ws(20, 4, 1.0, seed=s)
        assert len(g.edges) == 40
        assert_well_formed(g)


def test_ws_edge_count_always_n_k_half():
    rng = random.Random(4242)
    for _ in range(N_SEEDS):
        n = rng.randrange(3, 40)
        k = rng.randrange(0, n - 1, 2) if n > 2 else 0
        g = generate_ws(n, k, rng.random(), rng.randrange(2**32))
        assert len(g.edges) == n * k // 2


def test_ws_rewire_count_tracks_binomial_mean():
    # n=20, k=4, p=0.25: 40 coins, mean 10
    total = sum(generate_ws(20, 4, 0.25, s).rewired for s in range(N_SEEDS))
    sigma = math.sqrt(40 * 0.25 * 0.75)
    assert abs(total / N_SEEDS - 10.0) <= 3 * sigma / math.sqrt(N_SEEDS)


def test_ws_rejects_odd_or_oversized_k():
    with pytest.raises(ValueError):
        generate_ws(10, 3, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_ws(10, 10, 0.5, seed=0)


def dp_count_model(n, p, alpha, beta):
    """Mean and variance of the DP edge count as a sum of Bernoullis."""
    per_distance = Counter()
    for u in range(n):
        for v in range(u + 1, n):
            per_distance[ring_distance(n, u, v)] += 1
    mu = var = 0.0
    for d, c in per_distance.items():
        q = dp_edge_probability(alpha, p, beta, d)
        mu += c * q
        var += c * q * (1 - q)
    return mu, var


def test_dp_edge_count_tracks_model_mean():
    mu, var = dp_count_model(40, 0.8, 1.0, 1.0)
    total = sum(len(generate_dp(40, 0.8, 1.0, 1.0, s).edges) for s in range(N_SEEDS))
    assert abs(total / N_SEEDS - mu) <= 3 * math.sqrt(var) / math.sqrt(N_SEEDS)


def test_dp_prefers_short_edges_over_matched_er():
    mu, _ = dp_count_model(40, 0.8, 1.0, 1.0)
    dp_graphs = [generate_dp(40, 0.8, 1.0, 1.0, s) for s in range(N_SEEDS)]
    er_graphs = [generate_er(40, mu / 780, s) for s in range(N_SEEDS)]
    assert mean_ring_distance(dp_graphs) < mean_ring_distance(er_graphs)


def test_dp_alpha_zero_gives_empty_graph():
    assert generate_dp(12, 0.9, 0.0, 1.0, seed=1).edges == ()


def test_dp_rejects_negative_shape_parameters():
    for alpha, beta in ((-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError):
            generate_dp(10, 0.5, alpha, beta, seed=0)


def test_dp_well_formed_and_deterministic():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 30)
        p, a, b = rng.random(), rng.uniform(0, 2), rng.uniform(0, 2)
        seed = rng.randrange(2**32)
        g = generate_dp(n, p, a, b, seed)
        assert_well_formed(g)
        assert g == generate_dp(n, p, a, b, seed)


def test_fb_single_stage_equals_ws():
    for s in (0, 1, 7, 123):
        fb = generate_fb(20, 4, 0.4, 1, seed=s)
        ws = generate_ws(20, 4, 0.4, seed=s)
        assert fb.edges == ws.edges
        assert fb.stage_markers == ()


def test_fb_stage_ranges_partition_evenly():
    rng = random.Random(31)
    for _ in range(N_SEEDS):
        n = rng.randrange(1, 60)
        stages = rng.randrange(1, n + 1)
        ranges = fb_stage_ranges(n, stages)
        assert len(ranges) == stages
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        sizes = [b - a for a, b in ranges]
        assert all(r[1] == s[0] for r, s in zip(ranges, ranges[1:]))
        assert max(sizes) - min(sizes) <= 1
        # remainder vertices go to the earliest stages
        assert sizes == sorted(sizes, reverse=True)


def test_fb_markers_and_stage_confinement():
    g = generate_fb(30, 4, 0.5, 3, seed=9)
    assert g.stage_markers == (10, 20)
    bounds = [0, 10, 20, 30]
    for u, v in g.edges:
        stage = max(i for i, b in enumerate(bounds) if b <= u)
        assert bounds[stage] <= v < bounds[stage + 1], "edge crosses a stage"


def test_fb_clamps_lattice_degree_to_stage_size():
    # stages of size 2 cannot host k=6; the stage falls back to no edges
    g = generate_fb(6, 6, 0.5, 3, seed=0)
    assert g.edges == ()
    assert g.stage_markers == (2, 4)


def test_fb_rejects_bad_stage_count():
    with pytest.raises(ValueError):
        generate_fb(10, 2, 0.5, 0, seed=0)
    with pytest.raises(ValueError):
        generate_fb(10, 2, 0.5, 11, seed=0)


def test_dispatch_covers_all_kinds():
    cfgs = [
        GeneratorConfig(kind="er", n_vertices=12, seed=1, p=0.3),
        GeneratorConfig(kind="ba", n_vertices=12, seed=1, m=2),
        GeneratorConfig(kind="ws", n_vertices=12, seed=1, k=4, p=0.3),
        GeneratorConfig(kind="dp", n_vertices=12, seed=1, p=0.5, alpha=1.0, beta=1.0),
        GeneratorConfig(kind="fb", n_vertices=12, seed=1, k=4, p=0.3, stages=2),
    ]
    for cfg in cfgs:
        g = generate(cfg)
        assert g.config == cfg
        assert_well_formed(g)


def test_dispatch_rejects_missing_or_unknown():
    with pytest.raises(ValueError):
        generate(GeneratorConfig(kind="er", n_vertices=10, seed=0))
    with pytest.raises(ValueError):
        generate(GeneratorConfig(kind="tree", n_vertices=10, seed=0, p=0.5))


def test_json_round_trip():
    rng = random.Random(55)
    for _ in range(200):
        g = random_small_graph(rng)
        assert graph_from_dict(json.loads(json.dumps(graph_to_dict(g)))) == g


def test_json_edges_sorted_on_disk():
    g = generate_er(15, 0.4, seed=8)
    doc = json.loads(json.dumps(graph_to_dict(g), sort_keys=True))
    assert doc["edges"] == sorted(doc["edges"])


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param({"kind": "ba", "n_vertices": 10, "m": True, "seed": True}, id="ba-m-seed-True"),
        pytest.param({"kind": "ba", "n_vertices": 10, "m": True}, id="ba-m-True"),
        pytest.param({"kind": "ba", "n_vertices": 10, "m": 2, "seed": True}, id="seed-True"),
        pytest.param({"kind": "er", "n_vertices": 10, "p": True}, id="er-p-True"),
    ],
)
def test_generator_config_rejects_bool_numbers(fields):
    with pytest.raises(ValueError, match="takes only"):
        GeneratorConfig(**fields)


# The pair-by-pair generators that the array versions replaced, kept as
# oracles: every generator must build equal graphs from equal seeds.

def reference_stream(seed):
    """The stream a generator run draws from, built from numpy alone."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _reference_pairs(n):
    for u in range(n):
        for v in range(u + 1, n):
            yield (u, v)


def reference_generate_er(n, p, seed):
    cfg = GeneratorConfig(kind="er", n_vertices=n, seed=seed, p=p)
    rng = reference_stream(seed)
    pairs = list(_reference_pairs(n))
    draws = rng.random(len(pairs))
    edges = tuple(pair for pair, x in zip(pairs, draws) if x < p)
    return UndirectedGraph(n_vertices=n, edges=edges, config=cfg)


def reference_generate_dp(n, p, alpha, beta, seed):
    cfg = GeneratorConfig(kind="dp", n_vertices=n, seed=seed, p=p, alpha=alpha, beta=beta)
    rng = reference_stream(seed)
    pairs = list(_reference_pairs(n))
    probs = np.array([min(1.0, alpha * p ** (beta * ring_distance(n, u, v))) for u, v in pairs])
    draws = rng.random(len(pairs))
    edges = tuple(pair for pair, x, q in zip(pairs, draws, probs) if x < q)
    return UndirectedGraph(n_vertices=n, edges=edges, config=cfg)


def reference_generate_ba(n, m, seed):
    cfg = GeneratorConfig(kind="ba", n_vertices=n, seed=seed, m=m)
    rng = reference_stream(seed)
    degree = np.zeros(n, dtype=np.int64)
    edges = []
    for v in range(m, n):
        chosen = set()
        while len(chosen) < m:
            cum = np.cumsum(degree[:v] + 1)
            t = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            if t in chosen:
                continue
            chosen.add(t)
            degree[t] += 1
            degree[v] += 1
            edges.append((t, v))
    edges.sort()
    return UndirectedGraph(n_vertices=n, edges=tuple(edges), config=cfg)


def reference_ws_edges(n, k, p, rng, offset=0):
    adj = [set() for _ in range(n)]
    for v in range(n):
        for i in range(1, k // 2 + 1):
            w = (v + i) % n
            adj[v].add(w)
            adj[w].add(v)
    rewired = 0
    for i in range(1, k // 2 + 1):
        for v in range(n):
            w = (v + i) % n
            if w not in adj[v]:
                continue
            if rng.random() >= p:
                continue
            if len(adj[v]) >= n - 1:
                continue
            while True:
                t = int(rng.integers(0, n))
                if t != v and t not in adj[v]:
                    break
            adj[v].discard(w)
            adj[w].discard(v)
            adj[v].add(t)
            adj[t].add(v)
            rewired += 1
    edges = set()
    for v in range(n):
        for w in adj[v]:
            a, b = sorted((v + offset, w + offset))
            edges.add((a, b))
    return edges, rewired


ORACLE_SEEDS = 300


def _oracle_sizes(smallest):
    return [smallest, 7, 12, 40, 41, 120]


@pytest.mark.parametrize("n", _oracle_sizes(1))
def test_er_matches_reference(n):
    rng = random.Random(n)
    for seed in range(ORACLE_SEEDS):
        p = (0.0, 1.0, 0.12, rng.random())[seed % 4]
        assert generate_er(n, p, seed) == reference_generate_er(n, p, seed)


@pytest.mark.parametrize("n", _oracle_sizes(1))
def test_dp_matches_reference(n):
    """beta = 0 gives every pair probability alpha, and alpha >= 1 with a
    small beta * d clamps the short distances at 1."""
    rng = random.Random(n)
    for seed in range(ORACLE_SEEDS):
        p, alpha, beta = (
            (0.4, 2.0, 2.0),
            (rng.random(), rng.choice((0.5, 1.0, 2.5)), 0.0),
            (rng.random(), rng.uniform(1, 4), rng.uniform(0, 0.5)),
            (rng.random(), rng.uniform(0, 3), rng.uniform(0, 3)),
        )[seed % 4]
        assert generate_dp(n, p, alpha, beta, seed) == reference_generate_dp(n, p, alpha, beta, seed)


@pytest.mark.parametrize("n", _oracle_sizes(2))
def test_ba_matches_reference(n):
    rng = random.Random(n)
    for seed in range(ORACLE_SEEDS):
        m = (1, n - 1, min(3, n - 1), rng.randrange(1, min(8, n)))[seed % 4]
        assert generate_ba(n, m, seed) == reference_generate_ba(n, m, seed)


@pytest.mark.parametrize("n", _oracle_sizes(1))
def test_ws_edges_match_reference(n):
    rng = random.Random(n)
    for seed in range(ORACLE_SEEDS):
        k = rng.randrange(0, min(n, 24), 2)
        p, offset = (0.0, 1.0, 0.75, rng.random())[seed % 4], rng.choice((0, 5))
        assert _ws_edges(n, k, p, reference_stream(seed), offset) == reference_ws_edges(n, k, p, reference_stream(seed), offset)


@pytest.mark.parametrize("chunk", [1, 5, 37])
def test_chunked_pair_draws_match_reference(chunk, monkeypatch):
    """Pair coins drawn in chunks of whole rows are the same doubles, in the
    same order, as one draw over every pair."""
    monkeypatch.setattr(randgraph, "_CHUNK_PAIRS", chunk)
    for n in (2, 7, 41, 120):
        for seed in range(20):
            assert generate_er(n, 0.3, seed) == reference_generate_er(n, 0.3, seed)
            assert generate_dp(n, 0.4, 2.0, 1.5, seed) == reference_generate_dp(n, 0.4, 2.0, 1.5, seed)


def test_er_memory_is_bounded_by_chunks():
    """A 3,000-vertex graph has 4.5 million pairs; drawn in chunks, their
    arrays never all exist at once."""
    tracemalloc.start()
    try:
        generate_er(3000, 0.001, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
