"""Concurrency scoring of an architecture on n compute units.

Combines three signals, each taken at its best feasible partition:

* ``delta``     load imbalance, heaviest part over the ideal share
* ``lam_norm``  connectivity metric over (u_c * n), where u_c is the
                smallest output map, in bytes, that any vertex sends
* ``eta``       overlap ratio, longest path vertices over |V| / n

into  CS = (delta**a * lam_norm**b * eta**c) ** (1/3),  lower is better.
The default weights (1, 1.5, 1) bias the score toward communication.
The score of an architecture is the minimum over a grid of balance
tolerances, partitioning once per grid point.  Only grid points whose
partition meets its balance cap take part in the minimum.  When none
does, which happens only where greedy packing of the blocks misses every
cap on the grid, the minimum is taken over the whole grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence, Tuple

from .archmodel import ArchSpec
from .dagify import ArchDag
from .hypart import Partition, build_hypergraph, check_tolerance, partition
from .rng import KEY_PARTITION, derived_seed

DEFAULT_EPS_GRID = (1.05, 1.10, 1.20, 1.35, 1.50)
DEFAULT_WEIGHTS = (1.0, 1.5, 1.0)

def overlap_ratio(dag: ArchDag, n_units: int) -> float:
    """Longest path vertex count over the ideal per-unit share |V| / n."""
    if n_units < 1:
        raise ValueError(f"need at least one unit, got {n_units}")
    return dag.longest_path * n_units / dag.n_vertices

def cs_value(
    delta: float,
    lam_norm: float,
    eta: float,
    weights: Tuple[float, float, float] = DEFAULT_WEIGHTS,
) -> float:
    """Cube root of the weighted product; exactly 0 when lam_norm is 0.
    The weights are taken as given; ``check_settings`` is their check.
    Weights under which the product is not finite raise ``ValueError``."""
    if delta < 0 or lam_norm < 0 or eta < 0:
        raise ValueError("score factors must be non-negative")
    a, b, c = weights
    if lam_norm == 0.0:
        return 0.0
    try:
        product = delta**a * lam_norm**b * eta**c
    except OverflowError:
        product = math.inf
    if not product < math.inf:
        raise ValueError(f"weights {tuple(weights)} make the score of factors {(delta, lam_norm, eta)} overflow")
    return product ** (1.0 / 3.0)

def check_settings(eps_grid: Sequence[float], weights: Sequence[float]) -> None:
    """Reject a grid or weights the score cannot use: the grid must hold
    at least one tolerance, each finite and at least 1, and the weights
    must be exactly three finite, non-negative numbers."""
    if not eps_grid:
        raise ValueError("need at least one balance tolerance")
    for eps in eps_grid:
        check_tolerance(eps)
    if len(weights) != 3 or not all(0.0 <= w < math.inf for w in weights):
        raise ValueError(f"need exactly three finite, non-negative weights, got {weights}")

@dataclass(frozen=True)
class MetricsReport:
    """The grid's partitions, in grid order, and the score derived from them."""

    n_units: int
    eta: float
    u_c: int
    weights: Tuple[float, float, float]
    partitions: Tuple[Partition, ...]

    def lam_norm(self, p: Partition) -> float:
        return p.lam / (self.u_c * self.n_units)

    @cached_property
    def cs(self) -> Tuple[float, ...]:
        """The CS of each grid point, in grid order."""
        return tuple(cs_value(p.imbalance, self.lam_norm(p), self.eta, self.weights) for p in self.partitions)

    @cached_property
    def best_index(self) -> int:
        """The lowest CS among the feasible grid points (all of them if none
        is), ties to the first."""
        feasible = [i for i, p in enumerate(self.partitions) if not p.best_effort]
        return min(feasible or range(len(self.partitions)), key=lambda i: (self.cs[i], i))

    @property
    def best(self) -> Partition:
        return self.partitions[self.best_index]

    @property
    def best_cs(self) -> float:
        return self.cs[self.best_index]

def concurrency_score(
    arch: ArchSpec,
    n_units: int,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
    weights: Tuple[float, float, float] = DEFAULT_WEIGHTS,
    seed: int = 0,
) -> MetricsReport:
    """Score ``arch`` on ``n_units``; the reported CS is the minimum over
    the feasible grid points, or over the whole grid if none is feasible.

    ``eps_grid`` and ``weights`` must pass ``check_settings``.  Scoring
    one architecture at several unit counts rebuilds an equal hypergraph,
    so the partitioner's cached coarsening levels are shared.
    """
    check_settings(eps_grid, weights)
    h = build_hypergraph(arch)
    return MetricsReport(
        n_units=n_units,
        eta=overlap_ratio(arch.dag, n_units),
        u_c=min(arch.out_bytes[u] for u, _ in arch.dag.edges),
        weights=tuple(weights),
        partitions=tuple(
            partition(h, n_units, eps, seed=derived_seed(seed, KEY_PARTITION, i)) for i, eps in enumerate(eps_grid)
        ),
    )

def write_metrics_csv(r: MetricsReport, path: str | Path) -> None:
    """One row per grid point; the chosen minimum is flagged in the last column."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eps", "lam", "lam_norm", "imbalance", "eta", "cs", "best_effort", "chosen"])
        for i, (p, cs) in enumerate(zip(r.partitions, r.cs)):
            w.writerow(
                [p.eps, p.lam, repr(r.lam_norm(p)), repr(p.imbalance), repr(r.eta), repr(cs), int(p.best_effort), int(i == r.best_index)]
            )
