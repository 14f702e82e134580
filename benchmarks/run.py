"""The concnas benchmark: one workload per run, in a fresh process.

    python3 benchmarks/run.py --workload sweep-reference --seed 0 --seconds 30 --trace 0

Operations run one after another from this single process (a closed
loop, one client, no threads) until the operations have taken
``--seconds`` and at least ``min_rounds`` whole rounds are done.  Every
output is checked (see checks.py).  With ``--trace 0`` the last line is
a JSON object with the end-to-end metrics; with ``--trace 1`` the layer
functions are wrapped (see tracing.py) and it carries the per-layer
metrics instead.  benchmarks/README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if not (SRC / "concnas" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no concnas sources at {SRC}")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

from concnas import archmodel, cli, dagify, deploy, hypart, randgraph, rng, sweep  # noqa: E402,F401  (cli loads every layer)

KINDS = ("er", "ba", "ws", "dp", "fb")
# SweepConfig's generator defaults, restated so these inputs stay fixed
GEN_PARAMS = {
    "er": dict(p=0.12),
    "ba": dict(m=3),
    "ws": dict(k=6, p=0.75),
    "dp": dict(p=0.4, alpha=2.0, beta=2.0),
    "fb": dict(k=6, p=0.75, stages=3),
}
SETUP_PROBES = 3


def build_arch(kind: str, n_vertices: int, seed: int):
    graph = randgraph.generate(randgraph.GeneratorConfig(kind=kind, n_vertices=n_vertices, seed=seed, **GEN_PARAMS[kind]))
    return archmodel.elaborate(dagify.orient(graph), seed=seed)


class SweepReference:
    """Round r runs ``sweep.run_sample(cfg, kind, r)`` for each generator:
    the reference sweep's pipeline at every unit count of one architecture."""

    min_rounds = 50
    overhead_rounds = 4

    def __init__(self, seed: int, traced: bool):
        self.cfg = sweep.SweepConfig(master_seed=seed)
        self.rows: list = []
        self.cuts: list = []
        self.makespans: list = []

    def ops(self, r: int):
        return [((kind, r), lambda kind=kind: sweep.run_sample(self.cfg, kind, r)) for kind in KINDS]

    def after(self, key, rows) -> list:
        self.rows.extend(rows)
        if key[1] < self.min_rounds:
            self.cuts += [row["lam"] for row in rows]
            self.makespans += [row["makespan"] for row in rows]
        return [e for row in rows for e in checks.check_row(row, self.cfg.eps_grid, self.cfg.weights)]

    def finish(self, rounds: int):
        errors = []
        summary = sweep.summarize(self.rows)
        if len(summary) != len(KINDS) * len(self.cfg.units) or any(s["samples"] != rounds for s in summary):
            errors.append("summarize: not one entry of all samples per (generator, units)")
        path = OUT / "sweep-reference.rows.csv"
        sweep.write_rows_csv(self.rows, path)
        expected = {(kind, i, n) for kind in KINDS for i in range(rounds) for n in self.cfg.units}
        errors += checks.check_rows_csv(self.rows, path, expected)
        # header plus the rows of the first min_rounds rounds, which every run makes
        lines = path.read_bytes().splitlines(keepends=True)
        head = lines[: 1 + self.min_rounds * len(KINDS) * len(self.cfg.units)]
        return errors, hashlib.sha256(b"".join(head)).hexdigest()


class PartitionLarge:
    """Round r partitions the 120-vertex hypergraph of each generator's
    sample r once at each k; inputs of the first min_rounds rounds are
    built in set-up, later ones between operations."""

    n_vertices = 120
    n_parts = (2, 8, 16)
    eps = 1.10
    min_rounds = 12
    overhead_rounds = 2

    def __init__(self, seed: int, traced: bool):
        self.seed = seed
        self.traced = traced
        self.inputs = [self._build(r) for r in range(self.min_rounds)]
        self.digest = hashlib.sha256()
        self.cuts: list = []
        self.makespans: list = []

    def _build(self, r: int):
        seed = rng.sample_seed(self.seed, r)
        archs = [build_arch(kind, self.n_vertices, seed) for kind in KINDS]
        return [(kind, arch, hypart.build_hypergraph(arch)) for kind, arch in zip(KINDS, archs)]

    def ops(self, r: int):
        inputs = self.inputs[r] if r < self.min_rounds else self._build(r)
        ops = []
        for kind, arch, h in inputs:
            for k in self.n_parts:
                seed = rng.derived_seed(arch.seed, k)
                ops.append(((kind, r, k, arch, h), lambda h=h, k=k, seed=seed: hypart.partition(h, k, self.eps, seed=seed)))
        return ops

    def after(self, key, p) -> list:
        kind, r, k, arch, h = key
        errors = checks.check_partition(h, k, self.eps, p)
        if r < self.min_rounds:
            self.digest.update(f"{kind} {r} {k} {list(p.parts)}\n".encode())
            self.cuts.append(p.lam)
            if not self.traced and not errors:
                sim = simulate_parts(arch, p.parts, k)
                errors += checks.check_simulation(arch, k, sim, deploy.CostParams())
                self.makespans.append(sim.makespan)
        return errors

    def finish(self, rounds: int):
        return [], self.digest.hexdigest()


def simulate_parts(arch, parts, k: int):
    """Simulate the partition as a placement: vertex v runs on unit
    parts[v], the network input is replicated on every unit."""
    dag = arch.dag
    n = dag.n_vertices
    gd = deploy.GroupedDag(
        arch=arch,
        groups=tuple((v,) for v in range(n)),
        group_of=tuple(range(n)),
        group_weights=tuple(arch.vertex_flops),
        group_edges=(),
        input_group=dag.input_vertex,
        output_group=dag.output_vertex,
    )
    units = list(parts)
    units[dag.input_vertex] = deploy.COMMON_UNIT
    placement = deploy.Placement(
        unit_of_group=tuple(units), n_units=k, merge_unit=parts[dag.output_vertex], dedicated_merge_unit=False
    )
    return deploy.simulate(gd, placement)


class SimulateUnits:
    """Round r builds each generator's 40-vertex sample r (generate, orient,
    elaborate, group_chains) and places and simulates it on 1..16 units."""

    units = tuple(range(1, 17))
    min_rounds = 100
    overhead_rounds = 4

    def __init__(self, seed: int, traced: bool):
        self.seed = seed
        self.cost = deploy.CostParams()
        self.digest = hashlib.sha256()
        self.cuts: list = []
        self.makespans: list = []

    def ops(self, r: int):
        seed = rng.sample_seed(self.seed, r)
        return [((kind, r), lambda kind=kind: self._simulate(kind, seed)) for kind in KINDS]

    def _simulate(self, kind: str, seed: int):
        arch = build_arch(kind, 40, seed)
        gd = deploy.group_chains(arch)
        return arch, [(n, deploy.simulate(gd, deploy.place_greedy(gd, n))) for n in self.units]

    def after(self, key, out) -> list:
        arch, sims = out
        errors = [e for n, sim in sims for e in checks.check_simulation(arch, n, sim, self.cost)]
        if key[1] < self.min_rounds:
            self.digest.update(f"{key[0]} {key[1]} {[repr(sim.makespan) for _, sim in sims]}\n".encode())
            self.cuts += [sim.bytes_moved for _, sim in sims]
            self.makespans += [sim.makespan for _, sim in sims]
        return errors

    def finish(self, rounds: int):
        return [], self.digest.hexdigest()


WORKLOADS = {"sweep-reference": SweepReference, "partition-large": PartitionLarge, "simulate-units": SimulateUnits}


class Run:
    """Counters of one measured loop."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set = set()
        self.errors: list = []
        self.raised = 0
        self.latencies: list = []
        self.busy = 0.0
        self.rounds = 0

    def fail(self, op_index: int, errors: list) -> None:
        self.failed_ops.add(op_index)
        self.errors += errors


def time_ops(ops, run: Run | None = None, workload=None) -> float:
    """Run ``ops`` in order and return their summed wall time; with ``run``,
    count each one and check its output."""
    busy = 0.0
    for key, op in ops:
        index = run.attempted if run else -1
        if run:
            run.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception:
            busy += time.perf_counter() - t0
            if run:
                run.raised += 1
                run.failed_ops.add(index)
                traceback.print_exc(file=sys.stderr)
            continue
        dt = time.perf_counter() - t0
        busy += dt
        if run:
            run.latencies.append(dt)
            errors = workload.after(key, out)
            if errors:
                run.fail(index, errors)
    return busy


def clear_partition_cache() -> None:
    """Drop hypart's cached coarsening hierarchies, if it keeps any."""
    clear = getattr(getattr(hypart, "_coarsen", None), "cache_clear", None)
    if clear is not None:
        clear()


class LayerCounts:
    """Tracer hooks: the counts that traced layers' results expose, and
    every partition call, kept for checking after the loop."""

    def __init__(self):
        self.run: Run | None = None
        self.partitions: list = []  # (operation index, h, k, eps, Partition)
        self.pins: list = []
        self.transfers = 0
        self.bytes_moved = 0

    def hooks(self) -> dict:
        return {
            "hypart.partition": self.on_partition,
            "hypart.build_hypergraph": self.on_hypergraph,
            "deploy.simulate": self.on_simulate,
        }

    def on_partition(self, p, args) -> None:
        index = self.run.attempted - 1 if self.run else -1
        self.partitions.append((index, args[0], args[1], args[2], p))

    def on_hypergraph(self, h, args) -> None:
        self.pins.append(sum(len(e) for e in h.pins))

    def on_simulate(self, sim, args) -> None:
        self.transfers += sim.transfers
        self.bytes_moved += sim.bytes_moved


def measure_overhead(workload) -> float:
    """Traced over untraced time of the workload's first rounds, each round
    run both ways back to back so that drift in machine speed mostly cancels."""
    probe = Tracer(hooks=LayerCounts().hooks())
    plain = traced = 0.0
    for r in range(workload.overhead_rounds):
        clear_partition_cache()
        plain += time_ops(workload.ops(r))
        probe.install()
        clear_partition_cache()
        traced += time_ops(workload.ops(r))
        probe.uninstall()
    clear_partition_cache()
    return traced / plain


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from process start to the first operation, over
    SETUP_PROBES fresh processes that import concnas and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def layer_metrics(tracer: Tracer, counts: LayerCounts, loop_s: float, overhead: float) -> dict:
    spans = tracer.spans
    calls, pins = counts.partitions, counts.pins

    def ms_per_call(label: str, self_time: bool = False) -> float:
        s = spans[label]
        return 1000.0 * (s.self_time if self_time else s.total) / s.calls if s.calls else 0.0

    def share(label: str) -> float:
        return spans[label].total / loop_s if loop_s else 0.0

    n_calls = len(calls)
    hierarchies = len({(h, k) for _, h, k, _, _ in calls})
    sims = spans["deploy.simulate"]
    return {
        "hypart.partition.ms_per_call": (ms_per_call("hypart.partition"), "ms"),
        "hypart.partition.calls": (spans["hypart.partition"].calls, "count"),
        "hypart.partition.busy_share": (share("hypart.partition"), "ratio"),
        "hypart.partition.lam_history_entries": (
            sum(len(p.lam_history) for *_, p in calls) / n_calls if n_calls else 0.0, "entries/call"),
        "hypart.partition.calls_per_hierarchy": (n_calls / hierarchies if hierarchies else 0.0, "calls"),
        "hypart.partition.best_effort": (sum(p.best_effort for *_, p in calls), "count"),
        "hypart.build_hypergraph.ms_per_call": (ms_per_call("hypart.build_hypergraph"), "ms"),
        "hypart.pins_per_hypergraph": (statistics.mean(pins) if pins else 0.0, "pins"),
        "score.concurrency_score.self_ms_per_call": (ms_per_call("score.concurrency_score", self_time=True), "ms"),
        "deploy.simulate.ms_per_call": (ms_per_call("deploy.simulate"), "ms"),
        "deploy.simulate.busy_share": (share("deploy.simulate"), "ratio"),
        "deploy.simulate.transfers": (counts.transfers / sims.calls if sims.calls else 0.0, "transfers/call"),
        "deploy.simulate.bytes_moved": (counts.bytes_moved / sims.calls if sims.calls else 0.0, "bytes/call"),
        "deploy.group_chains.ms_per_call": (ms_per_call("deploy.group_chains"), "ms"),
        "deploy.place_greedy.ms_per_call": (ms_per_call("deploy.place_greedy"), "ms"),
        "randgraph.generate.ms_per_call": (ms_per_call("randgraph.generate"), "ms"),
        "dagify.orient.ms_per_call": (ms_per_call("dagify.orient"), "ms"),
        "archmodel.elaborate.ms_per_call": (ms_per_call("archmodel.elaborate"), "ms"),
        "archmodel.elaborate.calls": (spans["archmodel.elaborate"].calls, "count"),
        "sweep.run_sample.self_ms_per_call": (ms_per_call("sweep.run_sample", self_time=True), "ms"),
        "sweep.write_rows_csv.ms": (1000.0 * spans["sweep.write_rows_csv"].total, "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    traced = bool(args.trace)
    make = WORKLOADS[args.workload]

    if args.setup_probe:
        make(args.seed, traced=False)
        print(time.monotonic())
        return 0

    OUT.mkdir(exist_ok=True)
    counts = LayerCounts()
    tracer = Tracer(hooks=counts.hooks()) if traced else None
    if traced:
        tracer.install()  # set-up is traced too: it builds partition-large's inputs
    workload = make(args.seed, traced)

    overhead = 0.0
    if traced:
        tracer.uninstall()
        overhead = measure_overhead(workload)
        tracer.install()
    setup_s = None if traced else measure_setup(args.workload, args.seed)

    run = Run()
    counts.run = run
    while run.rounds < workload.min_rounds or run.busy < args.seconds:
        run.busy += time_ops(workload.ops(run.rounds), run, workload)
        run.rounds += 1
    finish_errors, digest = workload.finish(run.rounds)
    run.errors += finish_errors
    if traced:
        tracer.uninstall()
        for index, h, k, eps, p in counts.partitions:
            errors = checks.check_partition(h, k, eps, p)
            if errors:
                run.fail(index, errors)

    failed = len(run.failed_ops)
    correct = not run.errors
    lat = run.latencies
    if traced:
        metrics = layer_metrics(tracer, counts, run.busy, overhead)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(lat) / run.busy, "1/s"),
            "op_ms_p50": (1000.0 * statistics.median(lat), "ms"),
            "op_ms_p90": (1000.0 * statistics.quantiles(lat, n=10)[-1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "cut_bytes_mean": (statistics.mean(workload.cuts), "bytes"),
            "sim_makespan_mean": (statistics.mean(workload.makespans), "time_units"),
        }

    for e in run.errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {run.rounds} rounds, "
          f"{run.attempted} operations attempted, {failed} failed ({run.raised} raised)")
    print(f"digest {args.workload} seed={args.seed} rounds={workload.min_rounds} sha256={digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
