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
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Tuple

from .archmodel import ArchSpec
from .dagify import ArchDag, longest_path_length
from .hypart import Hypergraph, build_hypergraph, partition
from .rng import KEY_PARTITION, derived_seed

DEFAULT_EPS_GRID = (1.05, 1.10, 1.20, 1.35, 1.50)
DEFAULT_WEIGHTS = (1.0, 1.5, 1.0)

def overlap_ratio(dag: ArchDag, n_units: int) -> float:
    """Longest path vertex count over the ideal per-unit share |V| / n."""
    if n_units < 1:
        raise ValueError(f"need at least one unit, got {n_units}")
    return longest_path_length(dag) * n_units / dag.n_vertices

def cs_value(
    delta: float,
    lam_norm: float,
    eta: float,
    weights: Tuple[float, float, float] = DEFAULT_WEIGHTS,
) -> float:
    """Cube root of the weighted product; exactly 0 when lam_norm is 0."""
    if delta < 0 or lam_norm < 0 or eta < 0:
        raise ValueError("score factors must be non-negative")
    a, b, c = weights
    if lam_norm == 0.0:
        return 0.0
    return (delta**a * lam_norm**b * eta**c) ** (1.0 / 3.0)

@dataclass(frozen=True)
class EpsilonRecord:
    eps: float
    lam: int
    lam_norm: float
    imbalance: float
    cs: float
    best_effort: bool
    parts: Tuple[int, ...]

@dataclass(frozen=True)
class MetricsReport:
    n_units: int
    eta: float
    u_c: int
    weights: Tuple[float, float, float]
    records: Tuple[EpsilonRecord, ...]
    best_index: int

    @property
    def best(self) -> EpsilonRecord:
        return self.records[self.best_index]

    @property
    def best_cs(self) -> float:
        return self.best.cs

def concurrency_score(
    arch: ArchSpec,
    n_units: int,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
    weights: Tuple[float, float, float] = DEFAULT_WEIGHTS,
    seed: int = 0,
    hypergraph: Hypergraph | None = None,
) -> MetricsReport:
    """Score ``arch`` on ``n_units``; the reported CS is the minimum over
    the feasible grid points, or over the whole grid if none is feasible.

    A prebuilt ``hypergraph`` may be passed to amortize repeated scoring
    of one architecture at several unit counts.
    """
    if not eps_grid:
        raise ValueError("need at least one balance tolerance")
    h = hypergraph if hypergraph is not None else build_hypergraph(arch)
    eta = overlap_ratio(arch.dag, n_units)
    u_c = min(arch.out_bytes[u] for u, _ in arch.dag.edges)
    records = []
    for i, eps in enumerate(eps_grid):
        p = partition(h, n_units, eps, seed=derived_seed(seed, KEY_PARTITION, i))
        lam_norm = p.lam / (u_c * n_units)
        cs = cs_value(p.imbalance, lam_norm, eta, weights)
        records.append(
            EpsilonRecord(
                eps=eps,
                lam=p.lam,
                lam_norm=lam_norm,
                imbalance=p.imbalance,
                cs=cs,
                best_effort=p.best_effort,
                parts=p.parts,
            )
        )
    feasible = [i for i, r in enumerate(records) if not r.best_effort]
    best_index = min(feasible or range(len(records)), key=lambda i: (records[i].cs, i))
    return MetricsReport(
        n_units=n_units,
        eta=eta,
        u_c=u_c,
        weights=tuple(weights),
        records=tuple(records),
        best_index=best_index,
    )

def write_metrics_csv(r: MetricsReport, path: str | Path) -> None:
    """One row per grid point; the chosen minimum is flagged in the last column."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eps", "lam", "lam_norm", "imbalance", "eta", "cs", "best_effort", "chosen"])
        for i, e in enumerate(r.records):
            w.writerow(
                [e.eps, e.lam, repr(e.lam_norm), repr(e.imbalance), repr(r.eta), repr(e.cs), int(e.best_effort), int(i == r.best_index)]
            )
