"""Undirected random graph generators.

Five families, all over vertex ids ``0..n-1`` and all seed-deterministic:

* ``er``  independent edges with a fixed probability
* ``ba``  growth with linear preferential attachment
* ``ws``  ring lattice with clockwise probabilistic rewiring
* ``dp``  ring arrangement with distance-decaying edge probability
* ``fb``  staged baseline: independent ``ws`` stages joined later by
          merge vertices, stage boundaries recorded as markers

Edges are stored as ``(u, v)`` with ``u < v`` in lexicographic order, so
equal configurations serialize to identical bytes.  ``check_field_types``,
the type check that every config dataclass runs on its numeric fields,
lives here, in the module that the others import.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import accumulate, chain
from typing import Dict, Optional, Tuple, get_args, get_origin, get_type_hints

import numpy as np

from .rng import substream

Edge = Tuple[int, int]

# each family's required parameters
GENERATORS = {
    "er": ("p",),
    "ba": ("m",),
    "ws": ("k", "p"),
    "dp": ("p", "alpha", "beta"),
    "fb": ("k", "p", "stages"),
}

@lru_cache(maxsize=None)
def field_types(cls) -> Dict[str, Tuple[type, int, bool]]:
    """Per field of the dataclass ``cls``, read from its annotation: the
    innermost type, the number of tuples around it, and whether the field
    may be None (``Optional[Tuple[int, ...]]`` gives ``(int, 1, True)``)."""
    found = {}
    for name, hint in get_type_hints(cls).items():
        depth, optional = 0, type(None) in get_args(hint)
        while get_args(hint):
            depth += get_origin(hint) is tuple
            hint = next(t for t in get_args(hint) if t is not type(None))
        found[name] = (hint, depth, optional)
    return found

def check_field_types(obj) -> None:
    """Reject a value of the wrong type in a field of the dataclass ``obj``
    annotated ``int`` or ``float``: an int field takes an ``int``, a float
    field an ``int`` or a ``float``, and neither takes a ``bool``.  A tuple
    field is checked item by item, and an Optional one may be None.  The
    range rules stay with each class."""
    for name, (base, depth, optional) in field_types(type(obj)).items():
        values = [getattr(obj, name)]
        if base not in (int, float) or optional and values[0] is None:
            continue
        for _ in range(depth):
            values = list(chain.from_iterable(values))
        # by distinct type, as a hypergraph's pins run to thousands of values
        bad = {t for t in set(map(type, values)) if issubclass(t, bool) or not issubclass(t, (int, base))}
        if bad:
            value = next(v for v in values if type(v) in bad)
            raise ValueError(f"{name} takes only {'integers' if base is int else 'numbers'}, got {value!r}")

@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of one generator run, checked at construction.

    ``kind`` selects the family; only that family's fields are read.
    ``p`` is the edge/rewire probability (er, ws, dp, fb), ``m`` the
    attachment count (ba), ``k`` the even lattice degree (ws, fb),
    ``alpha``/``beta`` the scale and decay of the distance rule (dp),
    ``stages`` the stage count (fb).
    """

    kind: str
    n_vertices: int = 40
    seed: int = 0
    p: Optional[float] = None
    m: Optional[int] = None
    k: Optional[int] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    stages: Optional[int] = None

    def __post_init__(self):
        check_field_types(self)
        kind, n = self.kind, self.n_vertices
        if kind not in GENERATORS:
            raise ValueError(f"unknown generator kind: {kind!r}")
        for name in GENERATORS[kind]:
            if getattr(self, name) is None:
                raise ValueError(f"generator {kind!r} needs parameter {name!r}")
        if n < 1:
            raise ValueError(f"need at least one vertex, got {n}")
        if "p" in GENERATORS[kind] and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability outside [0, 1]: {self.p}")
        if kind == "ba" and not 1 <= self.m < n:
            raise ValueError(f"attachment count must satisfy 1 <= m < n, got m={self.m}, n={n}")
        if kind in ("ws", "fb") and (self.k % 2 != 0 or self.k < 0):
            raise ValueError(f"lattice degree must be even and non-negative, got {self.k}")
        if kind == "dp" and not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ValueError(f"alpha and beta must be finite and non-negative, got {self.alpha} and {self.beta}")
        if kind == "fb" and not 1 <= self.stages <= n:
            raise ValueError(f"stage count must satisfy 1 <= stages <= n, got {self.stages}")
        # a single stage is one ws graph, so the ws bound on k applies
        if (kind == "ws" or (kind == "fb" and self.stages == 1)) and self.k >= n:
            raise ValueError(f"lattice degree must satisfy 0 <= k < n, got k={self.k}, n={n}")

@dataclass(frozen=True)
class UndirectedGraph:
    n_vertices: int
    edges: Tuple[Edge, ...]
    config: GeneratorConfig
    stage_markers: Tuple[int, ...] = field(default=())
    # diagnostic only, not serialized: ws/fb rewire coin successes
    rewired: int = field(default=0, compare=False)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n_vertices)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

def ring_distance(n: int, u: int, v: int) -> int:
    """Hop count between u and v when 0..n-1 sit on a ring, at most n // 2."""
    if n < 1:
        raise ValueError(f"ring needs at least one vertex, got {n}")
    if u == v:
        raise ValueError("ring distance needs two distinct vertices")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex out of range for ring of {n}: ({u}, {v})")
    gap = abs(u - v)
    return min(gap, n - gap)

def dp_edge_probability(alpha: float, p: float, beta: float, distance: int) -> float:
    """Inclusion probability alpha * p**(beta * d), clamped to 1."""
    return min(1.0, alpha * p ** (beta * distance))

_CHUNK_PAIRS = 1 << 20

def _coin_edges(n: int, rng: np.random.Generator, prob_by_gap: np.ndarray) -> Tuple[Edge, ...]:
    """One uniform draw per vertex pair u < v, in the order of
    ``np.triu_indices(n, 1)``: lexicographic.  A pair whose draw is below
    ``prob_by_gap[v - u]`` is an edge.

    The pairs are drawn in chunks of whole rows, at most ``_CHUNK_PAIRS``
    pairs each unless one row holds more, so memory stays bounded as n
    grows; chunked draws are the same doubles as one draw of them all.
    """
    edges: list[Edge] = []
    start = 0
    while start < n - 1:
        stop = min(n - 1, start + max(1, _CHUNK_PAIRS // (n - 1 - start)))
        # rows start..stop-1 of the upper triangle, as offsets from start
        us, vs = np.triu_indices(stop - start, 1, n - start)
        keep = prob_by_gap[vs - us] > rng.random(len(us))  # probabilities first: a lower peak
        edges.extend(zip((us[keep] + start).tolist(), (vs[keep] + start).tolist()))
        start = stop
    return tuple(edges)

def generate_er(n: int, p: float, seed: int) -> UndirectedGraph:
    """Independent coin per vertex pair, probability ``p`` each."""
    cfg = GeneratorConfig(kind="er", n_vertices=n, seed=seed, p=p)
    edges = _coin_edges(n, substream(seed), np.full(n, p))
    return UndirectedGraph(n_vertices=n, edges=edges, config=cfg)

def generate_ba(n: int, m: int, seed: int) -> UndirectedGraph:
    """Preferential attachment: m disconnected seed vertices, then each
    new vertex attaches m distinct edges to existing vertices drawn with
    probability proportional to degree + 1.

    Degrees refresh after every accepted edge, duplicates are resampled,
    so the result always has exactly m * (n - m) edges.
    """
    cfg = GeneratorConfig(kind="ba", n_vertices=n, seed=seed, m=m)
    rng = substream(seed)
    weight = [1] * n  # degree + 1
    edges: list[Edge] = []
    for v in range(m, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            # integer totals below 2**53 scale and compare exactly as floats
            cum = list(accumulate(weight[:v]))
            t = bisect_right(cum, rng.random() * cum[-1])
            while t in chosen:  # a duplicate is drawn again from the same weights
                t = bisect_right(cum, rng.random() * cum[-1])
            chosen.add(t)
            weight[t] += 1
            weight[v] += 1
            edges.append((t, v))
    edges.sort()
    return UndirectedGraph(n_vertices=n, edges=tuple(edges), config=cfg)

def _ws_edges(
    n: int, k: int, p: float, rng: np.random.Generator, offset: int = 0
) -> tuple[set[Edge], int]:
    """Lattice-plus-rewire edge set over offset..offset+n-1.

    Consumes draws from ``rng`` in a fixed order: one uniform per lattice
    edge (pass i = 1..k/2, vertex 0..n-1 clockwise), plus target draws
    whenever the coin says rewire.  Returns the edges and the rewire count.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
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
            # all other vertices already adjacent: nothing to rewire to
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
    edges = {(v + offset, w + offset) for v in range(n) for w in adj[v] if v < w}
    return edges, rewired

def generate_ws(n: int, k: int, p: float, seed: int) -> UndirectedGraph:
    """Ring lattice with k/2 neighbours per side, then one clockwise
    rewiring pass per lattice distance: each surviving lattice edge moves
    to a uniformly drawn non-duplicate, non-self target with probability
    ``p``.  The edge count stays n * k / 2.
    """
    cfg = GeneratorConfig(kind="ws", n_vertices=n, seed=seed, p=p, k=k)
    rng = substream(seed)
    edges, rewired = _ws_edges(n, k, p, rng)
    return UndirectedGraph(
        n_vertices=n, edges=tuple(sorted(edges)), config=cfg, rewired=rewired
    )

def generate_dp(n: int, p: float, alpha: float, beta: float, seed: int) -> UndirectedGraph:
    """Ring arrangement with distance-decaying edge probability.

    Pair (u, v) at ring distance d is included independently with
    probability min(1, alpha * p**(beta * d)), so short-range edges
    dominate and the graph splits into locally connected clusters.
    """
    cfg = GeneratorConfig(kind="dp", n_vertices=n, seed=seed, p=p, alpha=alpha, beta=beta)
    # one probability per ring distance d = min(gap, n - gap), indexed by d
    by_distance = np.array([dp_edge_probability(alpha, p, beta, d) for d in range(n // 2 + 1)])
    gap = np.arange(n)
    edges = _coin_edges(n, substream(seed), by_distance[np.minimum(gap, n - gap)])
    return UndirectedGraph(n_vertices=n, edges=edges, config=cfg)

def fb_stage_ranges(n: int, stages: int) -> list[tuple[int, int]]:
    """Contiguous near-equal [start, end) ranges, earlier stages larger."""
    base, rem = divmod(n, stages)
    ranges = []
    start = 0
    for s in range(stages):
        size = base + (1 if s < rem else 0)
        ranges.append((start, start + size))
        start += size
    return ranges

def generate_fb(n: int, k: int, p: float, stages: int, seed: int) -> UndirectedGraph:
    """Staged baseline: an independent ws graph inside each contiguous
    stage, sharing one stream stage by stage, with a marker recorded at
    every stage boundary.  With stages=1 this is exactly ``generate_ws``.

    Stages too small for the requested lattice degree fall back to the
    largest even degree below the stage size.
    """
    cfg = GeneratorConfig(kind="fb", n_vertices=n, seed=seed, p=p, k=k, stages=stages)
    rng = substream(seed)
    edges: set[Edge] = set()
    rewired = 0
    ranges = fb_stage_ranges(n, stages)
    for start, end in ranges:
        size = end - start
        k_eff = min(k, size - 1)
        if k_eff % 2 != 0:
            k_eff -= 1
        stage_edges, stage_rewired = _ws_edges(size, k_eff, p, rng, offset=start)
        edges |= stage_edges
        rewired += stage_rewired
    markers = tuple(start for start, _ in ranges[1:])
    return UndirectedGraph(
        n_vertices=n,
        edges=tuple(sorted(edges)),
        config=cfg,
        stage_markers=markers,
        rewired=rewired,
    )

def generate(config: GeneratorConfig) -> UndirectedGraph:
    """Dispatch on ``config.kind``; the config checked its own fields."""
    c, n, seed = config, config.n_vertices, config.seed
    if c.kind == "er":
        return generate_er(n, c.p, seed)
    if c.kind == "ba":
        return generate_ba(n, c.m, seed)
    if c.kind == "ws":
        return generate_ws(n, c.k, c.p, seed)
    if c.kind == "dp":
        return generate_dp(n, c.p, c.alpha, c.beta, seed)
    return generate_fb(n, c.k, c.p, c.stages, seed)

def graph_to_dict(g: UndirectedGraph) -> dict:
    cfg = {k: v for k, v in asdict(g.config).items() if v is not None}
    return {
        "n_vertices": g.n_vertices,
        "edges": [list(e) for e in g.edges],
        "generator": cfg,
        "stage_markers": list(g.stage_markers),
    }

def graph_from_dict(doc: dict) -> UndirectedGraph:
    cfg = GeneratorConfig(**doc["generator"])
    return UndirectedGraph(
        n_vertices=doc["n_vertices"],
        edges=tuple(tuple(e) for e in doc["edges"]),
        config=cfg,
        stage_markers=tuple(doc.get("stage_markers", ())),
    )
