"""Orientation, reachability and depth statistics.

The DFS rule is pinned with hand-traced fixtures; everything else is
checked structurally over seeded random graphs, with an exhaustive path
enumerator as the longest-path oracle.  The Kahn sort and depth pass
that ``ArchDag.order`` and ``ArchDag.depths`` replaced are kept below as
references: the properties must equal them on every DAG.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import deque

import pytest

from concnas.dagify import (
    ArchDag,
    dag_from_dict,
    dag_to_dict,
    depth_width_histogram,
    orient,
    to_dot,
)
from concnas.randgraph import GENERATORS, GeneratorConfig, generate, generate_fb, generate_ws
from concnas.score import overlap_ratio
from helpers import empty_graph, manual_graph, path_graph, random_small_graph


def reachable_from(dag, start, skip=None, reverse=False):
    adj = [[] for _ in range(dag.n_vertices)]
    for u, v in dag.edges:
        if reverse:
            adj[v].append(u)
        else:
            adj[u].append(v)
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y != skip and y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def reference_topological_order(dag):
    """Kahn order, smallest id first among ready vertices."""
    pred = [[] for _ in range(dag.n_vertices)]
    succ = [[] for _ in range(dag.n_vertices)]
    for u, v in dag.edges:
        pred[v].append(u)
        succ[u].append(v)
    missing = [len(p) for p in pred]
    ready = [v for v in range(dag.n_vertices) if missing[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            missing[w] -= 1
            if missing[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != dag.n_vertices:
        raise ValueError("directed edges contain a cycle")
    return order


def reference_vertex_depths(dag):
    """Longest-path distance from the input vertex, in edges."""
    pred = [[] for _ in range(dag.n_vertices)]
    for u, v in dag.edges:
        pred[v].append(u)
    depth = [0] * dag.n_vertices
    for v in reference_topological_order(dag):
        if pred[v]:
            depth[v] = 1 + max(depth[u] for u in pred[v])
    return depth


def assert_matches_references(dag):
    assert list(dag.order) == reference_topological_order(dag)
    assert list(dag.depths) == reference_vertex_depths(dag)


def brute_force_longest_path(dag):
    """Max vertex count over all input-to-output paths, by enumeration."""
    succ = [[] for _ in range(dag.n_vertices)]
    for u, v in dag.edges:
        succ[u].append(v)
    best = 0
    stack = [(dag.input_vertex, 1)]
    while stack:
        v, length = stack.pop()
        if v == dag.output_vertex:
            best = max(best, length)
            continue
        for w in succ[v]:
            stack.append((w, length + 1))
    return best


def test_path_graph_becomes_chain():
    dag = orient(path_graph(3))
    i, o = dag.input_vertex, dag.output_vertex
    assert set(dag.edges) == {(i, 0), (0, 1), (1, 2), (2, o)}
    assert dag.longest_path == 5


def test_edgeless_graph_fans_out():
    dag = orient(empty_graph(3))
    i, o = dag.input_vertex, dag.output_vertex
    assert set(dag.edges) == {(i, 0), (i, 1), (i, 2), (0, o), (1, o), (2, o)}
    assert dag.longest_path == 3


def test_triangle_orientation():
    dag = orient(manual_graph(3, [(0, 1), (1, 2), (0, 2)]))
    directed = {e for e in dag.edges if max(e) < 3}
    assert directed == {(0, 1), (1, 2), (0, 2)}
    assert dag.longest_path == 5
    # one vertex per depth: 0 at 1, 1 at 2, 2 at 3, plus input and output
    assert depth_width_histogram(dag) == (1, 1, 1, 1, 1)


def test_orientation_always_acyclic():
    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        dag = orient(random_small_graph(rng))
        order = dag.order
        assert sorted(order) == list(range(dag.n_vertices))
        position = {v: i for i, v in enumerate(order)}
        for u, v in dag.edges:
            assert position[u] < position[v]


def test_single_source_single_sink_and_reachability():
    rng = random.Random(0xBEEF)
    for _ in range(300):
        dag = orient(random_small_graph(rng))
        in_deg = [0] * dag.n_vertices
        out_deg = [0] * dag.n_vertices
        for u, v in dag.edges:
            out_deg[u] += 1
            in_deg[v] += 1
        assert in_deg[dag.input_vertex] == 0
        assert out_deg[dag.output_vertex] == 0
        for v in range(dag.n_vertices):
            if v != dag.input_vertex:
                assert in_deg[v] > 0
            if v != dag.output_vertex:
                assert out_deg[v] > 0
        assert reachable_from(dag, dag.input_vertex) == set(range(dag.n_vertices))
        assert reachable_from(dag, dag.output_vertex, reverse=True) == set(
            range(dag.n_vertices)
        )


def test_orientation_deterministic():
    rng = random.Random(21)
    for _ in range(100):
        g = random_small_graph(rng)
        assert orient(g) == orient(g)


def test_longest_path_matches_enumeration():
    rng = random.Random(777)
    for _ in range(300):
        dag = orient(random_small_graph(rng, max_n=9))
        assert dag.longest_path == brute_force_longest_path(dag)


def test_chain_of_ten_blocks():
    dag = orient(path_graph(10))
    assert dag.longest_path == 12
    assert depth_width_histogram(dag) == (1,) * 12


def test_ten_parallel_blocks():
    dag = orient(empty_graph(10))
    assert dag.longest_path == 3
    assert depth_width_histogram(dag) == (1, 10, 1)


def test_histogram_counts_every_vertex():
    rng = random.Random(3131)
    for _ in range(300):
        dag = orient(random_small_graph(rng))
        hist = depth_width_histogram(dag)
        assert sum(hist) == dag.n_vertices
        assert len(hist) == dag.longest_path
        depths = dag.depths
        assert depths[dag.input_vertex] == 0
        assert depths[dag.output_vertex] == len(hist) - 1


def test_fb_merge_vertices_are_cut_vertices():
    for seed in range(100):
        g = generate_fb(30, 4, 0.5, 3, seed=seed)
        dag = orient(g)
        merges = [v for v, k in enumerate(dag.kinds) if k == "merge"]
        assert len(merges) == 2
        depths = dag.depths
        hist = depth_width_histogram(dag)
        for m in merges:
            # every input-to-output walk must pass through the merge
            reach = reachable_from(dag, dag.input_vertex, skip=m)
            assert dag.output_vertex not in reach
            assert hist[depths[m]] == 1


def test_fb_merge_wiring():
    g = generate_fb(30, 4, 0.5, 3, seed=5)
    dag = orient(g)
    merges = sorted(v for v, k in enumerate(dag.kinds) if k == "merge")
    bounds = [0, *g.stage_markers, 30]
    preds = dag.predecessors
    succs = dag.successors
    for j, m in enumerate(merges):
        lo, mid, hi = bounds[j], bounds[j + 1], bounds[j + 2]
        assert all(lo <= u < mid for u in preds[m])
        assert all(mid <= w < hi for w in succs[m])


def test_fb_staging_serializes_more_than_plain_ws():
    # merge funnels lengthen the critical path relative to one flat ws;
    # paired over seeds since the per-stage draws differ graph by graph
    diffs = []
    for seed in range(100):
        eta_fb = overlap_ratio(orient(generate_fb(30, 4, 0.5, 3, seed=seed)), 8)
        eta_ws = overlap_ratio(orient(generate_ws(30, 4, 0.5, seed=seed)), 8)
        diffs.append(eta_fb - eta_ws)
    assert sum(diffs) / len(diffs) > 0
    assert sum(1 for d in diffs if d > 0) > len(diffs) // 2


def test_cycle_is_rejected():
    dag = ArchDag(
        n_vertices=5,
        edges=((0, 1), (1, 2), (2, 0), (3, 0), (2, 4)),
        input_vertex=3,
        output_vertex=4,
        kinds=("block", "block", "block", "input", "output"),
    )
    # a cached_property keeps no exception, so every access sorts and raises
    for _ in range(2):
        with pytest.raises(ValueError, match="cycle"):
            dag.order
    with pytest.raises(ValueError, match="cycle"):
        dag.depths


# one small parameter set per generator family
FAMILY_PARAMS = {
    "er": dict(p=0.2),
    "ba": dict(m=2),
    "ws": dict(k=4, p=0.5),
    "dp": dict(p=0.4, alpha=2.0, beta=2.0),
    "fb": dict(k=4, p=0.5, stages=3),
}


def test_order_and_depths_match_references_on_every_generator():
    assert set(FAMILY_PARAMS) == set(GENERATORS)
    for kind, params in FAMILY_PARAMS.items():
        for seed in range(40):
            assert_matches_references(orient(generate(GeneratorConfig(kind=kind, n_vertices=20, seed=seed, **params))))
    rng = random.Random(4242)
    for _ in range(300):
        assert_matches_references(orient(random_small_graph(rng)))


def test_order_and_depths_match_references_on_staged_fb():
    for seed in range(60):
        dag = orient(generate_fb(30, 4, 0.5, 3, seed=seed))
        assert dag.kinds.count("merge") == 2
        assert_matches_references(dag)


def test_order_and_depths_match_references_after_round_trip():
    rng = random.Random(515)
    for _ in range(100):
        doc = dag_to_dict(orient(random_small_graph(rng)))
        rng.shuffle(doc["directed_edges"])
        back = dag_from_dict(json.loads(json.dumps(doc)))
        assert_matches_references(back)


def test_derived_structure_is_tuples_computed_once():
    dag = orient(generate_fb(20, 4, 0.5, 2, seed=3))
    for name in ("successors", "predecessors", "order", "depths"):
        value = getattr(dag, name)
        assert isinstance(value, tuple), name
        assert len(value) == dag.n_vertices, name
        assert getattr(dag, name) is value, name
    for lists in (dag.successors, dag.predecessors):
        assert all(isinstance(x, tuple) for x in lists)
    assert sorted((u, v) for u in range(dag.n_vertices) for v in dag.successors[u]) == sorted(dag.edges)
    assert sorted((u, v) for v in range(dag.n_vertices) for u in dag.predecessors[v]) == sorted(dag.edges)
    # derived values stay out of equality and hashing
    twin = orient(generate_fb(20, 4, 0.5, 2, seed=3))
    assert twin == dag and hash(twin) == hash(dag)


def test_dag_round_trip():
    rng = random.Random(88)
    for _ in range(100):
        dag = orient(random_small_graph(rng))
        back = dag_from_dict(json.loads(json.dumps(dag_to_dict(dag))))
        assert back.edges == dag.edges
        assert back.input_vertex == dag.input_vertex
        assert back.output_vertex == dag.output_vertex
        assert back.kinds == dag.kinds


def test_dot_export_mentions_every_vertex():
    dag = orient(generate_fb(12, 2, 0.3, 2, seed=1))
    dot = to_dot(dag)
    assert dot.startswith("digraph")
    for v in range(dag.n_vertices):
        assert f"{v} [" in dot or f"{v} ->" in dot
    assert to_dot(dag) == dot
