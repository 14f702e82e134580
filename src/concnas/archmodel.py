"""Analytic cost model turning a DAG into a concrete architecture.

Every block runs a separable 3x3 convolution over square feature maps.
A vertex whose predecessors disagree on shape first gets a scaling front
end: 2x max pools down to the smallest incoming spatial size and 1x1
projections up to the largest incoming channel count.  Inputs are then
gated by a sigmoid and combined by a learned weighted sum.

Staging halves the spatial size and doubles the channel count of a
block.  Three policies: ``greedy`` stages every block that still has
channel room, ``probabilistic`` stages eligible blocks with a fixed
probability (independent per-block streams), ``uniform`` never stages.

All shapes derive from the single input shape by matched halving and
doubling, so any two shapes in one architecture are power-of-two
related.  Costs are exact integer FLOP, parameter and byte counts.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from .dagify import (
    ArchDag,
    KIND_BLOCK,
    KIND_INPUT,
    KIND_MERGE,
    KIND_OUTPUT,
    dag_from_dict,
    dag_to_dict,
    topological_order,
)
from .rng import KEY_STAGING, substream

STAGING_MODES = ("greedy", "probabilistic", "uniform")

@dataclass(frozen=True)
class BlockSpec:
    """Costed form of one vertex.

    ``in_spatial``/``in_channels`` describe the unified shape after the
    scaling front end; ``spatial``/``channels`` the output feature map.
    ``scaling_pools`` and ``scaling_proj`` hold, per predecessor, the 2x
    pool step count and the 1x1 projection target (0 when not needed).
    """

    kind: str
    spatial: int
    channels: int
    staged: bool
    in_spatial: int
    in_channels: int
    input_shapes: Tuple[Tuple[int, int], ...]
    scaling_pools: Tuple[int, ...]
    scaling_proj: Tuple[int, ...]

    @property
    def output_shape(self) -> Tuple[int, int]:
        return (self.spatial, self.channels)

def _front_end_flops(b: BlockSpec) -> int:
    s, c = b.in_spatial, b.in_channels
    total = 0
    for (si, ci), pools, proj in zip(b.input_shapes, b.scaling_pools, b.scaling_proj):
        side = si
        for _ in range(pools):
            side //= 2
            total += side * side * ci
        if proj:
            total += s * s * ci * proj
        # sigmoid gate plus weighted-sum accumulation, one pass each
        total += 2 * s * s * c
    return total

def block_flops(b: BlockSpec, in_channels: Optional[int] = None) -> int:
    """Exact FLOP count of one block at its operating spatial size."""
    if b.kind in (KIND_INPUT, KIND_OUTPUT):
        return 0
    c_in = b.in_channels if in_channels is None else in_channels
    total = _front_end_flops(b)
    if b.kind == KIND_MERGE:
        return total
    s = b.spatial
    if b.staged:
        total += s * s * c_in  # staging pool
    total += s * s * c_in  # relu
    total += s * s * c_in * 9  # depthwise
    total += s * s * c_in * b.channels  # pointwise
    total += s * s * b.channels  # batchnorm
    return total

def flops_breakdown(b: BlockSpec) -> Dict[str, int]:
    """Per-term FLOP counts; values sum to ``block_flops(b)``."""
    if b.kind in (KIND_INPUT, KIND_OUTPUT):
        return {"scaling": 0, "depthwise": 0, "pointwise": 0, "other": 0}
    front = _front_end_flops(b)
    if b.kind == KIND_MERGE:
        return {"scaling": front, "depthwise": 0, "pointwise": 0, "other": 0}
    s, c_in = b.spatial, b.in_channels
    dw = s * s * c_in * 9
    pw = s * s * c_in * b.channels
    other = s * s * c_in * (2 if b.staged else 1) + s * s * b.channels
    return {"scaling": front, "depthwise": dw, "pointwise": pw, "other": other}

def block_params(b: BlockSpec, in_channels: Optional[int] = None) -> int:
    """Learned parameter count: conv weights, batchnorm, projections,
    one weighted-sum scalar per input edge."""
    if b.kind in (KIND_INPUT, KIND_OUTPUT):
        return 0
    c_in = b.in_channels if in_channels is None else in_channels
    total = len(b.input_shapes)  # weighted-sum scalars
    for (_, ci), proj in zip(b.input_shapes, b.scaling_proj):
        if proj:
            total += ci * proj
    if b.kind == KIND_MERGE:
        return total
    total += 9 * c_in  # depthwise
    total += c_in * b.channels  # pointwise
    total += 2 * b.channels  # batchnorm
    return total

@dataclass
class ArchSpec:
    """Fully costed architecture: DAG, per-vertex blocks, exact costs."""

    dag: ArchDag
    blocks: Tuple[BlockSpec, ...]
    input_shape: Tuple[int, int]
    channel_limit: int
    staging: str
    staging_prob: float
    bytes_per_element: int
    seed: int
    vertex_flops: Tuple[int, ...]
    vertex_params: Tuple[int, ...]
    suppressed_stagings: int
    _edge_bytes: Dict[Tuple[int, int], int] = field(repr=False, default_factory=dict)

    @property
    def total_flops(self) -> int:
        return sum(self.vertex_flops)

    @property
    def total_params(self) -> int:
        return sum(self.vertex_params)

    @property
    def per_edge_bytes(self) -> Dict[Tuple[int, int], int]:
        return self._edge_bytes

def edge_bytes(arch: ArchSpec, edge: Tuple[int, int]) -> int:
    """Bytes moved over one directed edge: the producer's full output map."""
    try:
        return arch.per_edge_bytes[tuple(edge)]
    except KeyError:
        raise KeyError(f"no such edge: {edge}") from None

def elaborate(
    dag: ArchDag,
    input_shape: Tuple[int, int] = (32, 16),
    channel_limit: int = 256,
    staging: str = "probabilistic",
    staging_prob: float = 0.5,
    bytes_per_element: int = 4,
    seed: int = 0,
) -> ArchSpec:
    """Assign shapes and costs to every vertex of ``dag``.

    Args:
        dag: oriented architecture graph.
        input_shape: (spatial, channels) of the network input.
        channel_limit: staging stops once doubling would exceed this.
        staging: one of ``greedy``, ``probabilistic``, ``uniform``.
        staging_prob: per-block staging probability in probabilistic mode.
        bytes_per_element: feature element width used for edge byte costs.
        seed: stream seed for the per-block staging coins.

    Returns:
        ArchSpec with one BlockSpec per vertex and exact integer costs.
    """
    s0, c0 = input_shape
    if s0 < 1 or c0 < 1:
        raise ValueError(f"input shape must be positive, got {input_shape}")
    if channel_limit < c0:
        raise ValueError(f"channel limit {channel_limit} below input channels {c0}")
    if staging not in STAGING_MODES:
        raise ValueError(f"unknown staging mode: {staging!r}")
    if not 0.0 <= staging_prob <= 1.0:
        raise ValueError(f"staging probability outside [0, 1]: {staging_prob}")

    pred = dag.predecessors()
    blocks: list[Optional[BlockSpec]] = [None] * dag.n_vertices
    suppressed = 0
    for v in topological_order(dag):
        kind = dag.kinds[v]
        if kind == KIND_INPUT:
            blocks[v] = BlockSpec(kind, s0, c0, False, s0, c0, (), (), ())
            continue
        shapes = tuple(blocks[u].output_shape for u in sorted(pred[v]))
        s_u = min(s for s, _ in shapes)
        c_u = max(c for _, c in shapes)
        pools = tuple(_pool_steps(s, s_u) for s, _ in shapes)
        proj = tuple(c_u if c < c_u else 0 for _, c in shapes)
        if kind in (KIND_OUTPUT, KIND_MERGE):
            zeros = (0,) * len(shapes)
            if kind == KIND_OUTPUT:
                blocks[v] = BlockSpec(kind, s_u, c_u, False, s_u, c_u, shapes, zeros, zeros)
            else:
                blocks[v] = BlockSpec(kind, s_u, c_u, False, s_u, c_u, shapes, pools, proj)
            continue
        eligible = 2 * c_u <= channel_limit
        if staging == "greedy":
            want = eligible
        elif staging == "uniform":
            want = False
        else:
            want = eligible and substream(seed, KEY_STAGING, v).random() < staging_prob
        feasible = s_u >= 2
        staged = eligible and want and feasible
        if eligible and want and not feasible:
            suppressed += 1
        if staged:
            blocks[v] = BlockSpec(kind, s_u // 2, 2 * c_u, True, s_u, c_u, shapes, pools, proj)
        else:
            blocks[v] = BlockSpec(kind, s_u, c_u, False, s_u, c_u, shapes, pools, proj)

    done = tuple(blocks)  # type: ignore[arg-type]
    flops = tuple(block_flops(b) for b in done)
    params = tuple(block_params(b) for b in done)
    ebytes = {}
    for u, w in dag.edges:
        s, c = done[u].output_shape
        ebytes[(u, w)] = s * s * c * bytes_per_element
    return ArchSpec(
        dag=dag,
        blocks=done,
        input_shape=(s0, c0),
        channel_limit=channel_limit,
        staging=staging,
        staging_prob=staging_prob,
        bytes_per_element=bytes_per_element,
        seed=seed,
        vertex_flops=flops,
        vertex_params=params,
        suppressed_stagings=suppressed,
        _edge_bytes=ebytes,
    )

def _pool_steps(spatial: int, target: int) -> int:
    steps = 0
    side = spatial
    while side > target:
        if side % 2 != 0:
            raise ValueError(f"spatial sizes not power-of-two related: {spatial} -> {target}")
        side //= 2
        steps += 1
    if side != target:
        raise ValueError(f"spatial sizes not power-of-two related: {spatial} -> {target}")
    return steps

def arch_to_dict(a: ArchSpec) -> dict:
    doc = dag_to_dict(a.dag)
    doc["elaboration"] = {
        "input_shape": list(a.input_shape),
        "channel_limit": a.channel_limit,
        "staging": a.staging,
        "staging_prob": a.staging_prob,
        "bytes_per_element": a.bytes_per_element,
        "seed": a.seed,
        "suppressed_stagings": a.suppressed_stagings,
    }
    doc["blocks"] = [
        {
            "vertex": v,
            "kind": b.kind,
            "spatial": b.spatial,
            "channels": b.channels,
            "staged": b.staged,
            "in_spatial": b.in_spatial,
            "in_channels": b.in_channels,
            "input_shapes": [list(s) for s in b.input_shapes],
            "scaling_pools": list(b.scaling_pools),
            "scaling_proj": list(b.scaling_proj),
            "flops": a.vertex_flops[v],
            "params": a.vertex_params[v],
        }
        for v, b in enumerate(a.blocks)
    ]
    doc["edge_bytes"] = [[u, v, a.per_edge_bytes[(u, v)]] for u, v in a.dag.edges]
    doc["totals"] = {"flops": a.total_flops, "params": a.total_params}
    return doc

def arch_from_dict(doc: dict) -> ArchSpec:
    dag = dag_from_dict(doc)
    meta = doc["elaboration"]
    blocks = tuple(
        BlockSpec(
            kind=b["kind"],
            spatial=b["spatial"],
            channels=b["channels"],
            staged=b["staged"],
            in_spatial=b["in_spatial"],
            in_channels=b["in_channels"],
            input_shapes=tuple(tuple(s) for s in b["input_shapes"]),
            scaling_pools=tuple(b["scaling_pools"]),
            scaling_proj=tuple(b["scaling_proj"]),
        )
        for b in sorted(doc["blocks"], key=lambda x: x["vertex"])
    )
    return ArchSpec(
        dag=dag,
        blocks=blocks,
        input_shape=tuple(meta["input_shape"]),
        channel_limit=meta["channel_limit"],
        staging=meta["staging"],
        staging_prob=meta["staging_prob"],
        bytes_per_element=meta["bytes_per_element"],
        seed=meta["seed"],
        vertex_flops=tuple(b["flops"] for b in sorted(doc["blocks"], key=lambda x: x["vertex"])),
        vertex_params=tuple(b["params"] for b in sorted(doc["blocks"], key=lambda x: x["vertex"])),
        suppressed_stagings=meta["suppressed_stagings"],
        _edge_bytes={(u, v): b for u, v, b in doc["edge_bytes"]},
    )

def write_arch(a: ArchSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(arch_to_dict(a), indent=2, sort_keys=True) + "\n")

def read_arch(path: str | Path) -> ArchSpec:
    return arch_from_dict(json.loads(Path(path).read_text()))

def write_arch_csv(a: ArchSpec, path: str | Path) -> None:
    """One row per vertex: shape, staging flag, exact costs."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["vertex", "kind", "spatial", "channels", "staged", "flops", "params"])
        for v, b in enumerate(a.blocks):
            w.writerow([v, b.kind, b.spatial, b.channels, int(b.staged), a.vertex_flops[v], a.vertex_params[v]])
