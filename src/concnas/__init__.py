"""Random DAG architectures and their distribution quality.

Samples undirected random graphs, orients them into single-input
single-output DAGs, elaborates each vertex into a convolutional block
with explicit FLOP/parameter/byte costs, and measures how well the
result spreads over a fixed pool of compute units: hypergraph
partitioning for communication volume, an overlap ratio for critical
path length, a combined concurrency score (lower is better), and a
discrete-event latency simulation of the placed network.
"""

from .randgraph import (
    GeneratorConfig,
    UndirectedGraph,
    generate,
    generate_ba,
    generate_dp,
    generate_er,
    generate_fb,
    generate_ws,
    ring_distance,
)
from .dagify import ArchDag, depth_width_histogram, orient
from .archmodel import ArchSpec, BlockSpec, ElaborationConfig, block_flops, block_params, elaborate
from .hypart import (
    Hypergraph,
    Partition,
    build_hypergraph,
    load_imbalance,
    partition,
    total_communication,
    write_hmetis,
)
from .score import MetricsReport, concurrency_score, cs_value, overlap_ratio
from .deploy import (
    CostParams,
    GroupedDag,
    Placement,
    SimResult,
    balance_entropy,
    group_chains,
    place_greedy,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "ArchDag",
    "ArchSpec",
    "BlockSpec",
    "CostParams",
    "ElaborationConfig",
    "GeneratorConfig",
    "GroupedDag",
    "Hypergraph",
    "MetricsReport",
    "Partition",
    "Placement",
    "SimResult",
    "UndirectedGraph",
    "balance_entropy",
    "block_flops",
    "block_params",
    "build_hypergraph",
    "concurrency_score",
    "cs_value",
    "depth_width_histogram",
    "elaborate",
    "generate",
    "generate_ba",
    "generate_dp",
    "generate_er",
    "generate_fb",
    "generate_ws",
    "group_chains",
    "load_imbalance",
    "orient",
    "overlap_ratio",
    "partition",
    "place_greedy",
    "ring_distance",
    "simulate",
    "total_communication",
    "write_hmetis",
]
