"""Command-line front end.

Subcommands: gen, score, partition, simulate, sweep, histogram.
Exit codes: 0 success, 1 usage error, 2 I/O error, 3 invariant violation.

Values resolve as CLI flag > config file (--config, flat JSON) > default.
The default output directory is the CONCNAS_OUT environment variable,
falling back to the current directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from .archmodel import ArchSpec, elaborate, read_arch, write_arch
from .dagify import depth_width_histogram, longest_path_length, orient, to_dot
from .deploy import (
    CostParams,
    balance_entropy,
    group_chains,
    place_greedy,
    simulate,
    write_placement,
    write_trace_csv,
)
from .hypart import build_hypergraph, partition, write_hmetis, write_partition
from .randgraph import GeneratorConfig, generate
from .score import DEFAULT_EPS_GRID, DEFAULT_WEIGHTS, concurrency_score, write_metrics_csv
from .sweep import DEFAULT_GENERATORS, DEFAULT_UNITS, SweepConfig, run_sweep, summarize, write_rows_csv

class UsageError(Exception):
    pass

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise UsageError(message)

def _csv_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))

def _csv_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))

def _csv_strs(text: str) -> tuple:
    return tuple(x.strip() for x in text.split(",") if x.strip())

_GEN_DEFAULTS = {
    "kind": None,
    "n": 40,
    "seed": 0,
    "p": None,
    "m": None,
    "k": None,
    "alpha": None,
    "beta": None,
    "stages": None,
    "spatial": 32,
    "channels": 16,
    "channel_limit": 256,
    "staging": "probabilistic",
    "staging_prob": 0.5,
}

def _add_gen_flags(p: _Parser) -> None:
    p.add_argument("--kind", choices=("er", "ba", "ws", "dp", "fb"))
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--stages", type=int)
    p.add_argument("--spatial", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--channel-limit", dest="channel_limit", type=int)
    p.add_argument("--staging", choices=("greedy", "probabilistic", "uniform"))
    p.add_argument("--staging-prob", dest="staging_prob", type=float)

def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="flat JSON file with flag defaults")
    p.add_argument("--out", help="output directory")

class _View:
    """Resolved option lookup: CLI > config file > defaults."""

    def __init__(self, args: argparse.Namespace, defaults: Dict):
        self._args = vars(args)
        self._defaults = defaults
        self._cfg = {}
        path = self._args.get("config")
        if path is not None:
            try:
                doc = json.loads(Path(path).read_text())
            except json.JSONDecodeError as exc:
                raise UsageError(f"config file {path}: {exc}") from exc
            if not isinstance(doc, dict):
                raise UsageError(f"config file {path}: expected a JSON object")
            self._cfg = doc

    def __getitem__(self, key: str):
        v = self._args.get(key)
        if v is not None:
            return v
        if key in self._cfg:
            return self._cfg[key]
        return self._defaults.get(key)

def _out_dir(view: _View) -> Path:
    out = view["out"] or os.environ.get("CONCNAS_OUT") or "."
    d = Path(out)
    d.mkdir(parents=True, exist_ok=True)
    return d

def _generator_config(view: _View) -> GeneratorConfig:
    kind = view["kind"]
    if kind is None:
        raise UsageError("--kind (or an --arch file) is required")
    return GeneratorConfig(
        kind=kind,
        n_vertices=int(view["n"]),
        seed=int(view["seed"]),
        p=view["p"],
        m=view["m"],
        k=view["k"],
        alpha=view["alpha"],
        beta=view["beta"],
        stages=view["stages"],
    )

def _build_arch(view: _View) -> ArchSpec:
    cfg = _generator_config(view)
    try:
        graph = generate(cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    dag = orient(graph)
    return elaborate(
        dag,
        input_shape=(int(view["spatial"]), int(view["channels"])),
        channel_limit=int(view["channel_limit"]),
        staging=view["staging"],
        staging_prob=float(view["staging_prob"]),
        seed=int(view["seed"]),
    )

def _load_or_build_arch(view: _View) -> ArchSpec:
    path = view["arch"]
    if path is not None:
        return read_arch(path)
    return _build_arch(view)

def cmd_gen(view: _View) -> int:
    cfg = _generator_config(view)
    try:
        graph = generate(cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    dag = orient(graph)
    arch = elaborate(
        dag,
        input_shape=(int(view["spatial"]), int(view["channels"])),
        channel_limit=int(view["channel_limit"]),
        staging=view["staging"],
        staging_prob=float(view["staging_prob"]),
        seed=int(view["seed"]),
    )
    out = _out_dir(view)
    name = view["name"] or f"{cfg.kind}_{cfg.n_vertices}_{cfg.seed}"
    arch_path = out / f"{name}.json"
    dot_path = out / f"{name}.dot"
    write_arch(arch, arch_path)
    dot_path.write_text(to_dot(dag, name=name))
    print(f"kind: {cfg.kind}")
    print(f"undirected edges: {len(graph.edges)}")
    print(f"dag vertices: {dag.n_vertices}")
    print(f"dag edges: {len(dag.edges)}")
    print(f"longest path: {longest_path_length(dag)}")
    print(f"total params: {arch.total_params}")
    print(f"total flops: {arch.total_flops}")
    print(f"wrote {arch_path} {dot_path}")
    return 0

def _check_partition_args(arch: ArchSpec, flag: str, part_counts, eps_values) -> None:
    """Reject part counts and balance tolerances that ``partition`` refuses."""
    n = arch.dag.n_vertices
    for k in part_counts:
        if not 2 <= k <= n:
            raise UsageError(f"{flag} must be between 2 and {n} (the DAG's vertex count), got {k}")
    for eps in eps_values:
        if not 1.0 <= eps < math.inf:
            raise UsageError(f"--eps must be finite and at least 1, got {eps}")

def cmd_score(view: _View) -> int:
    arch = _load_or_build_arch(view)
    units = view["units"]
    _check_partition_args(arch, "--units", units, view["eps"])
    out = _out_dir(view)
    name = view["name"] or "metrics"
    for n in units:
        report = concurrency_score(
            arch,
            n,
            eps_grid=tuple(view["eps"]),
            weights=tuple(view["weights"]),
            seed=int(view["seed"]),
        )
        path = out / f"{name}_n{n}.csv"
        write_metrics_csv(report, path)
        best = report.best
        print(f"n={n} best_cs={report.best_cs:.6g} eps={best.eps:g} "
              f"lam={best.lam} eta={report.eta:.6g} wrote {path}")
    return 0

def cmd_partition(view: _View) -> int:
    arch = _load_or_build_arch(view)
    n_parts, eps = int(view["parts"]), float(view["eps_one"])
    _check_partition_args(arch, "--parts", (n_parts,), (eps,))
    h = build_hypergraph(arch)
    p = partition(h, n_parts, eps, seed=int(view["seed"]))
    out = _out_dir(view)
    name = view["name"] or "partition"
    path = out / f"{name}.json"
    write_partition(p, path)
    if view["hmetis"]:
        hpath = out / f"{name}.hmetis"
        write_hmetis(h, hpath)
        print(f"wrote {hpath}")
    print(f"parts={p.n_parts} lam={p.lam} imbalance={p.imbalance:.6g} "
          f"best_effort={p.best_effort} wrote {path}")
    return 0

def cmd_simulate(view: _View) -> int:
    arch = _load_or_build_arch(view)
    gd = group_chains(arch)
    placement = place_greedy(gd, int(view["n_units"]), dedicated_merge_unit=bool(view["dedicated_merge"]))
    params = CostParams(
        flops_per_time=float(view["flops_per_time"]),
        bytes_per_time=float(view["bytes_per_time"]),
        link_latency=float(view["link_latency"]),
        include_gather=not bool(view["no_gather"]),
    )
    result = simulate(gd, placement, params, keep_trace=bool(view["trace"]))
    out = _out_dir(view)
    if view["trace"]:
        tpath = out / str(view["trace"])
        write_trace_csv(result, tpath)
        print(f"wrote {tpath}")
    if view["placement"]:
        ppath = out / str(view["placement"])
        write_placement(gd, placement, ppath)
        print(f"wrote {ppath}")
    print(f"groups={len(gd.groups)} makespan={result.makespan:.6g} "
          f"speedup={result.speedup_vs_single_unit:.6g} "
          f"entropy={balance_entropy(gd, placement):.6g}")
    return 0

def cmd_sweep(view: _View) -> int:
    cfg = SweepConfig(
        generators=tuple(view["generators"]),
        n_vertices=int(view["n"]),
        samples=int(view["samples"]),
        units=tuple(view["units"]),
        master_seed=int(view["master_seed"]),
        er_p=float(view["er_p"]),
        ba_m=int(view["ba_m"]),
        ws_k=int(view["ws_k"]),
        ws_p=float(view["ws_p"]),
        dp_p=float(view["dp_p"]),
        dp_alpha=float(view["dp_alpha"]),
        dp_beta=float(view["dp_beta"]),
        fb_stages=int(view["fb_stages"]),
        staging=view["staging"],
        staging_prob=float(view["staging_prob"]),
        cost=CostParams(
            flops_per_time=float(view["flops_per_time"]),
            bytes_per_time=float(view["bytes_per_time"]),
            link_latency=float(view["link_latency"]),
            include_gather=not bool(view["no_gather"]),
        ),
        workers=int(view["workers"]),
    )
    rows = run_sweep(cfg)
    summary = summarize(rows)
    out = _out_dir(view)
    rows_path = out / "rows.csv"
    summary_path = out / "summary.csv"
    write_rows_csv(rows, rows_path)
    write_rows_csv(summary, summary_path)
    for s in summary:
        print(f"{s['generator']} n={s['n_units']} mean_cs={s['mean_cs']:.4g} "
              f"latency_vs_fb={s['latency_vs_fb']:.4g} mean_speedup={s['mean_speedup']:.4g}")
    print(f"wrote {rows_path} {summary_path}")
    return 0

def cmd_histogram(view: _View) -> int:
    arch = _load_or_build_arch(view)
    hist = depth_width_histogram(arch.dag)
    out = _out_dir(view)
    name = view["name"] or "histogram"
    path = out / f"{name}.csv"
    lines = ["depth,width"]
    lines += [f"{d},{w}" for d, w in enumerate(hist)]
    path.write_text("\n".join(lines) + "\n")
    print(f"depths={len(hist)} widths_sum={sum(hist)} wrote {path}")
    return 0

_COST_DEFAULTS = {
    "flops_per_time": 400_000.0,
    "bytes_per_time": 131_072.0,
    "link_latency": 0.05,
    "no_gather": False,
}

def _add_cost_flags(p: _Parser) -> None:
    p.add_argument("--flops-per-time", dest="flops_per_time", type=float)
    p.add_argument("--bytes-per-time", dest="bytes_per_time", type=float)
    p.add_argument("--link-latency", dest="link_latency", type=float)
    p.add_argument("--no-gather", dest="no_gather", action="store_const", const=True)

def _build_parser() -> _Parser:
    parser = _Parser(prog="concnas", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", help="generate an architecture file")
    _add_gen_flags(p)
    _add_common(p)
    p.add_argument("--name")

    p = sub.add_parser("score", help="concurrency score over an epsilon grid")
    p.add_argument("--arch", help="architecture JSON file")
    _add_gen_flags(p)
    _add_common(p)
    p.add_argument("--name")
    p.add_argument("--units", type=_csv_ints)
    p.add_argument("--eps", type=_csv_floats)
    p.add_argument("--weights", type=_csv_floats)

    p = sub.add_parser("partition", help="partition the architecture hypergraph")
    p.add_argument("--arch")
    _add_gen_flags(p)
    _add_common(p)
    p.add_argument("--name")
    p.add_argument("--parts", type=int)
    p.add_argument("--eps", dest="eps_one", type=float)
    p.add_argument("--hmetis", action="store_const", const=True)

    p = sub.add_parser("simulate", help="place groups and simulate one inference")
    p.add_argument("--arch")
    _add_gen_flags(p)
    _add_common(p)
    p.add_argument("--units", dest="n_units", type=int)
    p.add_argument("--dedicated-merge-unit", dest="dedicated_merge", action="store_const", const=True)
    p.add_argument("--trace", help="trace CSV filename")
    p.add_argument("--placement", help="placement JSON filename")
    _add_cost_flags(p)

    p = sub.add_parser("sweep", help="seeded Monte-Carlo sweep")
    _add_common(p)
    p.add_argument("--generators", type=_csv_strs)
    p.add_argument("--n", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--units", type=_csv_ints)
    p.add_argument("--master-seed", dest="master_seed", type=int)
    p.add_argument("--er-p", dest="er_p", type=float)
    p.add_argument("--ba-m", dest="ba_m", type=int)
    p.add_argument("--ws-k", dest="ws_k", type=int)
    p.add_argument("--ws-p", dest="ws_p", type=float)
    p.add_argument("--dp-p", dest="dp_p", type=float)
    p.add_argument("--dp-alpha", dest="dp_alpha", type=float)
    p.add_argument("--dp-beta", dest="dp_beta", type=float)
    p.add_argument("--fb-stages", dest="fb_stages", type=int)
    p.add_argument("--staging", choices=("greedy", "probabilistic", "uniform"))
    p.add_argument("--staging-prob", dest="staging_prob", type=float)
    p.add_argument("--workers", type=int)
    _add_cost_flags(p)

    p = sub.add_parser("histogram", help="depth/width histogram CSV")
    p.add_argument("--arch")
    _add_gen_flags(p)
    _add_common(p)
    p.add_argument("--name")

    return parser

_SWEEP_DEFAULTS = {
    "generators": DEFAULT_GENERATORS,
    "n": 40,
    "samples": 1000,
    "units": DEFAULT_UNITS,
    "master_seed": 0,
    "er_p": 0.12,
    "ba_m": 3,
    "ws_k": 6,
    "ws_p": 0.75,
    "dp_p": 0.4,
    "dp_alpha": 2.0,
    "dp_beta": 2.0,
    "fb_stages": 3,
    "staging": "probabilistic",
    "staging_prob": 0.5,
    "workers": 1,
}

_DEFAULTS = {
    "gen": {**_GEN_DEFAULTS, "name": None},
    "score": {
        **_GEN_DEFAULTS,
        "arch": None,
        "name": None,
        "units": DEFAULT_UNITS,
        "eps": DEFAULT_EPS_GRID,
        "weights": DEFAULT_WEIGHTS,
    },
    "partition": {
        **_GEN_DEFAULTS,
        "arch": None,
        "name": None,
        "parts": 4,
        "eps_one": 1.2,
        "hmetis": False,
    },
    "simulate": {
        **_GEN_DEFAULTS,
        **_COST_DEFAULTS,
        "arch": None,
        "n_units": 8,
        "dedicated_merge": False,
        "trace": None,
        "placement": None,
    },
    "sweep": {**_SWEEP_DEFAULTS, **_COST_DEFAULTS},
    "histogram": {**_GEN_DEFAULTS, "arch": None, "name": None},
}

_DISPATCH = {
    "gen": cmd_gen,
    "score": cmd_score,
    "partition": cmd_partition,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "histogram": cmd_histogram,
}

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (gen, score, partition, simulate, sweep, histogram)")
        view = _View(args, _DEFAULTS[args.command])
        return _DISPATCH[args.command](view)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3

if __name__ == "__main__":
    sys.exit(main())
