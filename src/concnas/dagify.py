"""Orientation of undirected graphs into single-input single-output DAGs.

Each component is swept depth-first starting from the smallest unvisited
vertex id, neighbours in ascending order, and every undirected edge is
directed from the endpoint discovered earlier to the one discovered
later.  Discovery time is then a topological order, so the result is
acyclic by construction.  A synthetic input vertex feeds every source, a
synthetic output vertex collects every sink, and staged graphs get one
merge vertex per stage boundary joining stage sinks to next-stage
sources.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from .randgraph import Edge, UndirectedGraph, graph_from_dict, graph_to_dict

KIND_INPUT = "input"
KIND_BLOCK = "block"
KIND_MERGE = "merge"
KIND_OUTPUT = "output"

@dataclass(frozen=True)
class ArchDag:
    """Directed architecture graph; ids cover blocks, merges, input, output.

    Adjacency, topological order, depths and the longest path are derived
    from the edges on first access and kept."""

    n_vertices: int
    edges: Tuple[Edge, ...]
    input_vertex: int
    output_vertex: int
    kinds: Tuple[str, ...]
    undirected: Optional[UndirectedGraph] = field(default=None, compare=False)

    @cached_property
    def successors(self) -> Tuple[Tuple[int, ...], ...]:
        """Per vertex, the heads of its out-edges in edge order."""
        succ: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            succ[u].append(v)
        return tuple(map(tuple, succ))

    @cached_property
    def predecessors(self) -> Tuple[Tuple[int, ...], ...]:
        """Per vertex, the tails of its in-edges in edge order."""
        pred: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            pred[v].append(u)
        return tuple(map(tuple, pred))

    @cached_property
    def order(self) -> Tuple[int, ...]:
        """Kahn order, smallest id first among ready vertices; raises
        ValueError if the edges contain a cycle."""
        succ = self.successors
        missing = [len(p) for p in self.predecessors]
        ready = [v for v in range(self.n_vertices) if missing[v] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in succ[v]:
                missing[w] -= 1
                if missing[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) != self.n_vertices:
            raise ValueError("directed edges contain a cycle")
        return tuple(order)

    @cached_property
    def depths(self) -> Tuple[int, ...]:
        """Longest-path distance from the input vertex, in edges."""
        depth = [0] * self.n_vertices
        pred = self.predecessors
        for v in self.order:
            if pred[v]:
                depth[v] = 1 + max(depth[u] for u in pred[v])
        return tuple(depth)

    @cached_property
    def longest_path(self) -> int:
        """Vertex count of the longest input-to-output path."""
        return self.depths[self.output_vertex] + 1

def _dfs_discovery(n: int, adj: list[set[int]]) -> list[int]:
    """Discovery times of an ascending-neighbour DFS from smallest roots."""
    disc = [-1] * n
    clock = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = clock
        clock += 1
        stack = [(root, iter(sorted(adj[root])))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    disc[w] = clock
                    clock += 1
                    stack.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
    return disc

def orient(g: UndirectedGraph) -> ArchDag:
    """Orient ``g`` and augment it with input, output and merge vertices."""
    n = g.n_vertices
    adj = g.adjacency()
    disc = _dfs_discovery(n, adj)
    edges: list[Edge] = []
    for a, b in g.edges:
        edges.append((a, b) if disc[a] < disc[b] else (b, a))

    out_deg = [0] * n
    in_deg = [0] * n
    for u, v in edges:
        out_deg[u] += 1
        in_deg[v] += 1

    kinds = [KIND_BLOCK] * n
    next_id = n
    if g.stage_markers:
        bounds = [0, *g.stage_markers, n]
        for j in range(len(bounds) - 2):
            lo, mid, hi = bounds[j], bounds[j + 1], bounds[j + 2]
            sinks = [v for v in range(lo, mid) if out_deg[v] == 0]
            sources = [v for v in range(mid, hi) if in_deg[v] == 0]
            merge = next_id
            next_id += 1
            kinds.append(KIND_MERGE)
            for v in sinks:
                edges.append((v, merge))
            for v in sources:
                edges.append((merge, v))

    # recount over block + merge edges before attaching input and output
    total = next_id + 2
    out_deg = [0] * total
    in_deg = [0] * total
    for u, v in edges:
        out_deg[u] += 1
        in_deg[v] += 1

    input_vertex = next_id
    output_vertex = next_id + 1
    kinds.extend([KIND_INPUT, KIND_OUTPUT])
    for v in range(next_id):
        if in_deg[v] == 0:
            edges.append((input_vertex, v))
        if out_deg[v] == 0:
            edges.append((v, output_vertex))

    return ArchDag(
        n_vertices=total,
        edges=tuple(sorted(edges)),
        input_vertex=input_vertex,
        output_vertex=output_vertex,
        kinds=tuple(kinds),
        undirected=g,
    )

def depth_width_histogram(d: ArchDag) -> Tuple[int, ...]:
    """Vertex count per depth level; entries sum to ``n_vertices``."""
    depths = d.depths
    widths = [0] * (max(depths) + 1)
    for x in depths:
        widths[x] += 1
    return tuple(widths)

_DOT_SHAPE = {
    KIND_INPUT: "invtriangle",
    KIND_BLOCK: "box",
    KIND_MERGE: "diamond",
    KIND_OUTPUT: "triangle",
}

def to_dot(d: ArchDag, name: str = "arch") -> str:
    lines = [f"digraph {name} {{"]
    for v in range(d.n_vertices):
        lines.append(f'  v{v} [label="{v}" shape={_DOT_SHAPE[d.kinds[v]]}];')
    for u, v in d.edges:
        lines.append(f"  v{u} -> v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"

def dag_to_dict(d: ArchDag) -> dict:
    doc = graph_to_dict(d.undirected) if d.undirected is not None else {}
    doc.update(
        {
            "n_dag_vertices": d.n_vertices,
            "directed_edges": [list(e) for e in d.edges],
            "input": d.input_vertex,
            "output": d.output_vertex,
            "kinds": list(d.kinds),
        }
    )
    return doc

def dag_from_dict(doc: dict) -> ArchDag:
    """Inverse of ``dag_to_dict``; raises ValueError unless every edge joins
    two known vertices, no edge enters the input or leaves the output,
    and every vertex has a known kind."""
    undirected = graph_from_dict(doc) if "generator" in doc else None
    dag = ArchDag(
        n_vertices=doc["n_dag_vertices"],
        edges=tuple(tuple(e) for e in doc["directed_edges"]),
        input_vertex=doc["input"],
        output_vertex=doc["output"],
        kinds=tuple(doc["kinds"]),
        undirected=undirected,
    )
    n, vertices = dag.n_vertices, range(dag.n_vertices)
    if (
        len(dag.kinds) != n
        or any(k not in _DOT_SHAPE for k in dag.kinds)
        or dag.input_vertex not in vertices
        or dag.output_vertex not in vertices
        or dag.kinds[dag.input_vertex] != KIND_INPUT
        or dag.kinds[dag.output_vertex] != KIND_OUTPUT
        or any(len(e) != 2 or e[0] not in vertices or e[1] not in vertices for e in dag.edges)
        or any(v == dag.input_vertex or u == dag.output_vertex for u, v in dag.edges)
    ):
        raise ValueError("inconsistent DAG: vertex ids, kinds or terminal edges")
    return dag
