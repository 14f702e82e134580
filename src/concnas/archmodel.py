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
A block stages only while its spatial size is even; a staging that the
policy wants but an odd size blocks counts as suppressed.

All shapes derive from the single input shape by exact halving and
doubling, so any two shapes in one architecture are power-of-two
related.  Costs are exact integer FLOP, parameter and byte counts.
Every setting comes from one ``ElaborationConfig``, which the
architecture keeps and its file records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
)
from .randgraph import check_field_types
from .rng import KEY_STAGING, substream

STAGING_MODES = ("greedy", "probabilistic", "uniform")

class ArchFileError(ValueError):
    """An architecture file that is malformed or disagrees with its rebuild."""

@dataclass(frozen=True)
class ElaborationConfig:
    """Settings of ``elaborate`` other than the DAG and the seed, checked
    at construction."""

    input_spatial: int = 32
    input_channels: int = 16
    channel_limit: int = 256
    staging: str = "probabilistic"
    staging_prob: float = 0.5
    bytes_per_element: int = 4

    def __post_init__(self):
        check_field_types(self)
        s0, c0 = self.input_spatial, self.input_channels
        if s0 < 1 or c0 < 1:
            raise ValueError(f"input shape must be positive, got {(s0, c0)}")
        if self.channel_limit < c0:
            raise ValueError(f"channel limit {self.channel_limit} below input channels {c0}")
        if self.staging not in STAGING_MODES:
            raise ValueError(f"unknown staging mode: {self.staging!r}")
        if not 0.0 <= self.staging_prob <= 1.0:
            raise ValueError(f"staging probability outside [0, 1]: {self.staging_prob}")
        if self.bytes_per_element < 1:
            raise ValueError(f"bytes per element must be at least 1, got {self.bytes_per_element}")

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

def flops_breakdown(b: BlockSpec) -> Dict[str, int]:
    """Per-term FLOP counts at the block's operating spatial size.

    ``other`` holds the relu, the staging pool of a staged block and the
    batchnorm.
    """
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

def block_flops(b: BlockSpec) -> int:
    """Exact FLOP count of one block: the sum of its breakdown."""
    return sum(flops_breakdown(b).values())

def block_params(b: BlockSpec) -> int:
    """Learned parameter count: conv weights, batchnorm, projections,
    one weighted-sum scalar per input edge."""
    if b.kind in (KIND_INPUT, KIND_OUTPUT):
        return 0
    c_in = b.in_channels
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
    """Fully costed architecture: DAG, per-vertex blocks, exact costs.

    ``elaboration`` holds the settings it was elaborated under.
    ``out_bytes[v]`` is the size of v's output map, which every consumer
    of v receives whole.
    """

    dag: ArchDag
    blocks: Tuple[BlockSpec, ...]
    elaboration: ElaborationConfig
    seed: int
    vertex_flops: Tuple[int, ...]
    vertex_params: Tuple[int, ...]
    suppressed_stagings: int
    out_bytes: Tuple[int, ...]

    @property
    def total_flops(self) -> int:
        return sum(self.vertex_flops)

    @property
    def total_params(self) -> int:
        return sum(self.vertex_params)

def elaborate(dag: ArchDag, config: ElaborationConfig = ElaborationConfig(), seed: int = 0) -> ArchSpec:
    """Assign shapes and costs to every vertex of ``dag``.

    Each block takes the smallest spatial size and the largest channel
    count among its inputs.  It stages when ``config.staging`` wants it
    to and doubling stays within ``config.channel_limit``, and only
    while its spatial size is even.  ``seed`` seeds the per-block
    staging coins of the probabilistic policy.

    Returns:
        ArchSpec with one BlockSpec per vertex and exact integer costs.
    """
    s0, c0 = config.input_spatial, config.input_channels
    pred = dag.predecessors
    blocks: list[Optional[BlockSpec]] = [None] * dag.n_vertices
    suppressed = 0
    for v in dag.order:
        kind = dag.kinds[v]
        if kind == KIND_INPUT:
            blocks[v] = BlockSpec(kind, s0, c0, False, s0, c0, (), (), ())
            continue
        shapes = tuple(blocks[u].output_shape for u in sorted(pred[v]))
        s_u = min(s for s, _ in shapes)
        c_u = max(c for _, c in shapes)
        pools = tuple(_pool_steps(s, s_u) for s, _ in shapes)
        proj = tuple(c_u if c < c_u else 0 for _, c in shapes)
        if kind == KIND_OUTPUT:
            pools = proj = (0,) * len(shapes)
        # only a block with channel room is eligible, and only its coin is drawn
        want = (
            kind == KIND_BLOCK and 2 * c_u <= config.channel_limit and config.staging != "uniform"
            and (config.staging == "greedy" or substream(seed, KEY_STAGING, v).random() < config.staging_prob)
        )
        staged = want and s_u % 2 == 0
        suppressed += want and not staged
        scale = 2 if staged else 1
        blocks[v] = BlockSpec(kind, s_u // scale, c_u * scale, staged, s_u, c_u, shapes, pools, proj)

    done = tuple(blocks)  # type: ignore[arg-type]
    return ArchSpec(
        dag=dag,
        blocks=done,
        elaboration=config,
        seed=seed,
        vertex_flops=tuple(block_flops(b) for b in done),
        vertex_params=tuple(block_params(b) for b in done),
        suppressed_stagings=suppressed,
        out_bytes=tuple(b.spatial * b.spatial * b.channels * config.bytes_per_element for b in done),
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
    cfg = a.elaboration
    doc["elaboration"] = {
        "input_shape": [cfg.input_spatial, cfg.input_channels],
        "channel_limit": cfg.channel_limit,
        "staging": cfg.staging,
        "staging_prob": cfg.staging_prob,
        "bytes_per_element": cfg.bytes_per_element,
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
    doc["edge_bytes"] = [[u, v, a.out_bytes[u]] for u, v in a.dag.edges]
    doc["totals"] = {"flops": a.total_flops, "params": a.total_params}
    return doc

def write_arch(a: ArchSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(arch_to_dict(a), indent=2, sort_keys=True) + "\n")

def read_arch(path: str | Path) -> ArchSpec:
    """Rebuild the architecture from the file's DAG and elaboration
    settings; a file that is not exactly ``arch_to_dict`` of its rebuild
    raises ArchFileError, and so does one that does not decode as JSON."""
    try:
        doc = json.loads(Path(path).read_text())
        settings = dict(doc["elaboration"])
        del settings["suppressed_stagings"]
        seed = settings.pop("seed")
        s0, c0 = settings.pop("input_shape")
        config = ElaborationConfig(input_spatial=s0, input_channels=c0, **settings)
        arch = elaborate(dag_from_dict(doc), config, seed)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ArchFileError(f"{path}: not an architecture file ({type(exc).__name__}: {exc})") from None
    if json.dumps(arch_to_dict(arch), sort_keys=True) != json.dumps(doc, sort_keys=True):
        raise ArchFileError(f"{path}: does not match the architecture its DAG and settings rebuild")
    return arch
