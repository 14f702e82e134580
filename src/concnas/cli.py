"""Command-line front end.

Subcommands: gen, score, partition, simulate, sweep, histogram.
Exit codes: 0 success, 1 usage error, 2 I/O error, 3 invariant violation.
The exception decides the code: an ArchFileError or OSError is an I/O
error, any other ValueError, from whichever layer checked the input, is
a usage error, and a KeyError is an invariant violation.

Values resolve as CLI flag > config file (--config) > the default of the
config dataclass the flag fills.  The dataclasses check every value
before any pipeline work.  A config
file is a flat JSON object keyed by flag names with ``_`` for ``-``, read
as flags placed before the command line: lists are joined by commas,
``true`` is the bare flag and ``false`` leaves it out.  An --arch file
that differs from the architecture its DAG and elaboration settings
rebuild is an I/O error; a generator or elaboration flag given with it,
which it would ignore, is a usage error.  The default output directory
is the CONCNAS_OUT environment variable, falling back to the current
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .archmodel import ArchFileError, ArchSpec, ElaborationConfig, elaborate, read_arch, write_arch
from .dagify import depth_width_histogram, orient, to_dot
from .deploy import CostParams, balance_entropy, group_chains, place_greedy, simulate, write_placement, write_trace_csv
from .hypart import build_hypergraph, check_part_count, partition, write_hmetis, write_partition
from .randgraph import GeneratorConfig, field_types, generate
from .score import concurrency_score, write_metrics_csv
from .sweep import SweepConfig, run_sweep, summarize, write_rows_csv

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise ValueError(message)

def _csv(cast):
    def csv_list(text: str) -> tuple:
        return tuple(cast(x.strip()) for x in text.split(",") if x.strip())
    return csv_list

# The config fields each group of flags fills.  A field's flag is its name
# with "-" for "_", unless renamed here; its type comes from the field's
# annotation, and a tuple field reads a comma-separated list.
GENERATOR_FIELDS = ("kind", "n_vertices", "seed", "p", "m", "k", "alpha", "beta", "stages")
SHAPE_FIELDS = ("input_spatial", "input_channels", "channel_limit")
STAGING_FIELDS = ("staging", "staging_prob")
COST_FIELDS = ("flops_per_time", "bytes_per_time", "link_latency", "include_gather")
SCORE_FIELDS = ("units", "eps_grid", "weights")
SWEEP_FIELDS = (
    "generators", "n_vertices", "samples", "units", "master_seed", "er_p", "ba_m",
    "ws_k", "ws_p", "dp_p", "dp_alpha", "dp_beta", "fb_stages", "workers",
)
_FLAG_NAMES = {"n_vertices": "--n", "input_spatial": "--spatial", "input_channels": "--channels",
               "eps_grid": "--eps", "include_gather": "--no-gather"}

def _flag(name: str) -> str:
    return _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))

def _add_fields(p: argparse.ArgumentParser, cls, names) -> None:
    """One flag per field, with no default: left unset, a flag is left out
    of the namespace and the dataclass default applies."""
    for name in names:
        flag = _flag(name)
        base, depth, _ = field_types(cls)[name]
        kwargs = {"default": argparse.SUPPRESS}
        if base is bool and not depth:
            kwargs["action"] = "store_false" if getattr(cls, name) else "store_true"
        else:
            kwargs["metavar"] = flag[2:].replace("-", "_").upper()
            kwargs["type"] = _csv(base) if depth else base
        p.add_argument(flag, dest=name, **kwargs)

def _config(cls, args: argparse.Namespace, names, **nested):
    """``cls`` from the values set for its fields ``names``."""
    return cls(**{name: getattr(args, name) for name in names if hasattr(args, name)}, **nested)

def _load_arch(args: argparse.Namespace, used=()) -> ArchSpec:
    """The --arch file, or the architecture that the generator and elaboration flags describe.

    The file fixes the architecture, so with --arch a generator or
    elaboration flag is a usage error, unless the command itself reads it
    (``used``).
    """
    if getattr(args, "arch", None) is not None:
        ignored = [_flag(name) for name in GENERATOR_FIELDS + SHAPE_FIELDS + STAGING_FIELDS
                   if name not in used and hasattr(args, name)]
        if ignored:
            raise ValueError(f"--arch fixes the architecture, so {', '.join(ignored)} would be ignored")
        return read_arch(args.arch)
    elab = _config(ElaborationConfig, args, SHAPE_FIELDS + STAGING_FIELDS)
    if not hasattr(args, "kind"):
        raise ValueError("--kind (or an --arch file) is required")
    gen = _config(GeneratorConfig, args, GENERATOR_FIELDS)
    return elaborate(orient(generate(gen)), elab, gen.seed)

def _out_dir(args: argparse.Namespace) -> Path:
    d = Path(args.out or os.environ.get("CONCNAS_OUT") or ".")
    d.mkdir(parents=True, exist_ok=True)
    return d

def cmd_gen(args: argparse.Namespace) -> int:
    arch = _load_arch(args)
    dag = arch.dag
    gen = dag.undirected.config
    out = _out_dir(args)
    name = args.name or f"{gen.kind}_{gen.n_vertices}_{gen.seed}"
    arch_path = out / f"{name}.json"
    dot_path = out / f"{name}.dot"
    write_arch(arch, arch_path)
    dot_path.write_text(to_dot(dag, name=name))
    print(f"kind: {gen.kind}")
    print(f"undirected edges: {len(dag.undirected.edges)}")
    print(f"dag vertices: {dag.n_vertices}")
    print(f"dag edges: {len(dag.edges)}")
    print(f"longest path: {dag.longest_path}")
    print(f"total params: {arch.total_params}")
    print(f"total flops: {arch.total_flops}")
    print(f"wrote {arch_path} {dot_path}")
    return 0

def cmd_score(args: argparse.Namespace) -> int:
    # the unit counts are checked against this DAG, not against a sweep's --n
    grid = _config(SweepConfig, args, ("eps_grid", "weights"))
    units = getattr(args, "units", grid.units)
    if not units:
        raise ValueError("--units needs at least one value")
    arch = _load_arch(args, used=("seed",))
    for n in units:  # every unit count is checked before the first partition
        check_part_count(n, arch.dag.n_vertices)
    seed = getattr(args, "seed", GeneratorConfig.seed)
    reports = [concurrency_score(arch, n, eps_grid=grid.eps_grid, weights=grid.weights, seed=seed) for n in units]
    # a CS that overflows at any unit count is rejected before the first file is opened
    bests = [report.best for report in reports]
    out = _out_dir(args)
    name = args.name or "metrics"
    for n, report, best in zip(units, reports, bests):
        path = out / f"{name}_n{n}.csv"
        write_metrics_csv(report, path)
        print(f"n={n} best_cs={report.best_cs:.6g} eps={best.eps:g} "
              f"lam={best.lam} eta={report.eta:.6g} wrote {path}")
    return 0

def cmd_partition(args: argparse.Namespace) -> int:
    arch = _load_arch(args, used=("seed",))
    h = build_hypergraph(arch)
    p = partition(h, args.parts, args.eps, seed=getattr(args, "seed", GeneratorConfig.seed))
    out = _out_dir(args)
    name = args.name or "partition"
    path = out / f"{name}.json"
    write_partition(p, path)
    if args.hmetis:
        hpath = out / f"{name}.hmetis"
        write_hmetis(h, hpath)
        print(f"wrote {hpath}")
    print(f"parts={p.n_parts} lam={p.lam} imbalance={p.imbalance:.6g} "
          f"best_effort={p.best_effort} wrote {path}")
    return 0

def cmd_simulate(args: argparse.Namespace) -> int:
    cost = _config(CostParams, args, COST_FIELDS)
    arch = _load_arch(args)
    gd = group_chains(arch)
    placement = place_greedy(gd, args.units, dedicated_merge_unit=args.dedicated_merge_unit)
    result = simulate(gd, placement, cost, keep_trace=bool(args.trace))
    out = _out_dir(args)
    if args.trace:
        tpath = out / args.trace
        write_trace_csv(result, tpath)
        print(f"wrote {tpath}")
    if args.placement:
        ppath = out / args.placement
        write_placement(gd, placement, ppath)
        print(f"wrote {ppath}")
    print(f"groups={len(gd.groups)} makespan={result.makespan:.6g} "
          f"speedup={result.speedup_vs_single_unit:.6g} "
          f"entropy={balance_entropy(gd, placement):.6g}")
    return 0

def cmd_sweep(args: argparse.Namespace) -> int:
    elab = _config(ElaborationConfig, args, STAGING_FIELDS)
    cfg = _config(SweepConfig, args, SWEEP_FIELDS, elaboration=elab, cost=_config(CostParams, args, COST_FIELDS))
    rows = run_sweep(cfg)
    summary = summarize(rows)
    out = _out_dir(args)
    rows_path = out / "rows.csv"
    summary_path = out / "summary.csv"
    write_rows_csv(rows, rows_path)
    write_rows_csv(summary, summary_path)
    for s in summary:
        print(f"{s['generator']} n={s['n_units']} mean_cs={s['mean_cs']:.4g} "
              f"latency_vs_fb={s['latency_vs_fb']:.4g} mean_speedup={s['mean_speedup']:.4g}")
    print(f"wrote {rows_path} {summary_path}")
    return 0

def cmd_histogram(args: argparse.Namespace) -> int:
    arch = _load_arch(args)
    hist = depth_width_histogram(arch.dag)
    out = _out_dir(args)
    name = args.name or "histogram"
    path = out / f"{name}.csv"
    path.write_text("\n".join(["depth,width", *(f"{d},{w}" for d, w in enumerate(hist))]) + "\n")
    print(f"depths={len(hist)} widths_sum={sum(hist)} wrote {path}")
    return 0

# Flags of the commands alone, as (flag, argparse keywords)
COMMON_FLAGS = (("--config", {"help": "flat JSON file of flag values"}), ("--out", {"help": "output directory"}))
ARCH_FLAGS = (("--arch", {"help": "architecture JSON file"}),)
NAME_FLAGS = (("--name", {}),)
PARTITION_FLAGS = (
    ("--parts", {"type": int, "default": 4}),
    ("--eps", {"type": float, "default": 1.2}),
    ("--hmetis", {"action": "store_true"}),
)
SIMULATE_FLAGS = (
    ("--units", {"type": int, "default": 8}),
    ("--dedicated-merge-unit", {"action": "store_true"}),
    ("--trace", {"help": "trace CSV filename"}),
    ("--placement", {"help": "placement JSON filename"}),
)
BUILD = ((GeneratorConfig, GENERATOR_FIELDS), (ElaborationConfig, SHAPE_FIELDS + STAGING_FIELDS))
SWEEP = ((SweepConfig, SWEEP_FIELDS), (ElaborationConfig, STAGING_FIELDS), (CostParams, COST_FIELDS))

# name: (help, command, (config, fields) pairs, flags of the command alone)
_COMMANDS = {
    "gen": ("generate an architecture file", cmd_gen, BUILD, NAME_FLAGS),
    "score": ("concurrency score over an epsilon grid", cmd_score, BUILD + ((SweepConfig, SCORE_FIELDS),),
              ARCH_FLAGS + NAME_FLAGS),
    "partition": ("partition the architecture hypergraph", cmd_partition, BUILD,
                  ARCH_FLAGS + NAME_FLAGS + PARTITION_FLAGS),
    "simulate": ("place groups and simulate one inference", cmd_simulate, BUILD + ((CostParams, COST_FIELDS),),
                 ARCH_FLAGS + SIMULATE_FLAGS),
    "sweep": ("seeded Monte-Carlo sweep", cmd_sweep, SWEEP, ()),
    "histogram": ("depth/width histogram CSV", cmd_histogram, BUILD, ARCH_FLAGS + NAME_FLAGS),
}

def _build_parser() -> _Parser:
    parser = _Parser(prog="concnas", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, _, configs, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for cls, fields in configs:
            _add_fields(p, cls, fields)
        for flag, kwargs in COMMON_FLAGS + flags:
            p.add_argument(flag, **kwargs)
    return parser

def _config_tokens(path: str) -> list:
    """A config file as flag tokens: lists joined by commas, ``true`` the
    bare flag, ``false`` left out."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path}: expected a JSON object")
    tokens = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not False:
            tokens.append(f"{flag}={','.join(map(str, value)) if isinstance(value, list) else value}")
    return tokens

def _parse(parser: _Parser, argv: Sequence[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.command is None:
        raise ValueError(f"a subcommand is required ({', '.join(_COMMANDS)})")
    if args.config is None:
        return args
    # the config's values go first, so the command line wins
    return parser.parse_args([argv[0], *_config_tokens(args.config), *argv[1:]])

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
        return _COMMANDS[args.command][1](args)
    except (ArchFileError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3

if __name__ == "__main__":
    sys.exit(main())
