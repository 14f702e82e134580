"""Hand-rolled graphs, DAGs and cost tables shared across the suite."""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence, Tuple

from concnas.archmodel import ArchSpec, BlockSpec, ElaborationConfig
from concnas.dagify import ArchDag
from concnas.randgraph import GeneratorConfig, UndirectedGraph, generate


def manual_graph(n: int, edges: Iterable[Tuple[int, int]], kind: str = "er") -> UndirectedGraph:
    """Undirected graph with a fabricated provenance config."""
    cfg = GeneratorConfig(kind=kind, n_vertices=n, seed=0, p=0.0)
    norm = sorted(tuple(sorted(e)) for e in edges)
    return UndirectedGraph(n_vertices=n, edges=tuple(norm), config=cfg)


def path_graph(n: int) -> UndirectedGraph:
    return manual_graph(n, [(i, i + 1) for i in range(n - 1)])


def empty_graph(n: int) -> UndirectedGraph:
    return manual_graph(n, [])


def random_small_graph(rng: random.Random, max_n: int = 24) -> UndirectedGraph:
    """One graph from a randomly chosen family with valid random knobs."""
    kind = rng.choice(("er", "ba", "ws", "dp", "fb"))
    seed = rng.randrange(2**32)
    if kind == "er":
        n = rng.randrange(1, max_n + 1)
        cfg = GeneratorConfig(kind="er", n_vertices=n, seed=seed, p=rng.random())
    elif kind == "ba":
        n = rng.randrange(2, max_n + 1)
        cfg = GeneratorConfig(kind="ba", n_vertices=n, seed=seed, m=rng.randrange(1, n))
    elif kind == "ws":
        n = rng.randrange(3, max_n + 1)
        k = rng.randrange(0, n - 1, 2) if n > 2 else 0
        cfg = GeneratorConfig(kind="ws", n_vertices=n, seed=seed, k=k, p=rng.random())
    elif kind == "dp":
        n = rng.randrange(1, max_n + 1)
        cfg = GeneratorConfig(
            kind="dp",
            n_vertices=n,
            seed=seed,
            p=rng.random(),
            alpha=rng.uniform(0.0, 3.0),
            beta=rng.uniform(0.0, 2.0),
        )
    else:
        n = rng.randrange(3, max_n + 1)
        k = rng.randrange(0, n - 1, 2) if n > 2 else 0
        stages = rng.randrange(1, min(4, n) + 1)
        cfg = GeneratorConfig(
            kind="fb", n_vertices=n, seed=seed, k=k, p=rng.random(), stages=stages
        )
    return generate(cfg)


def dag_of(
    n_blocks: int,
    block_edges: Sequence[Tuple[int, int]],
    kinds: Optional[Sequence[str]] = None,
) -> ArchDag:
    """Directed DAG over blocks 0..n-1 plus synthetic input and output.

    Sources get an edge from the input vertex, sinks one to the output
    vertex, matching the augmentation rule of orient().
    """
    inp, out = n_blocks, n_blocks + 1
    edges = list(block_edges)
    has_out = {u for u, _ in edges}
    has_in = {v for _, v in edges}
    for v in range(n_blocks):
        if v not in has_in:
            edges.append((inp, v))
        if v not in has_out:
            edges.append((v, out))
    tags = tuple(kinds) if kinds else ("block",) * n_blocks
    return ArchDag(
        n_vertices=n_blocks + 2,
        edges=tuple(sorted(edges)),
        input_vertex=inp,
        output_vertex=out,
        kinds=tags + ("input", "output"),
    )


def synthetic_arch(
    dag: ArchDag,
    flops: Sequence[int],
    out_bytes: Optional[Sequence[int]] = None,
    default_bytes: int = 1,
) -> ArchSpec:
    """ArchSpec with hand-picked vertex flops and bytes per producer.

    The block table holds placeholders; placement, partitioning and the
    simulator only read the cost vectors.
    """
    blocks = tuple(
        BlockSpec(dag.kinds[v], 1, 1, False, 1, 1, (), (), ())
        for v in range(dag.n_vertices)
    )
    return ArchSpec(
        dag=dag,
        blocks=blocks,
        elaboration=ElaborationConfig(1, 1, 1, "uniform", 0.5, 1),
        seed=0,
        vertex_flops=tuple(flops),
        vertex_params=(0,) * dag.n_vertices,
        suppressed_stagings=0,
        out_bytes=tuple(out_bytes) if out_bytes is not None else (default_bytes,) * dag.n_vertices,
    )
