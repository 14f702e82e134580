"""Self-test of the benchmark.

    python3 benchmarks/selftest.py

Runs one round of each workload and expects its outputs to pass every
check, then hands each checker a corrupted output and expects it to be
caught (a flipped part label, lam off by one, a makespan below the
critical path, and a few more).  Last, it runs benchmarks/run.py briefly,
untraced and traced, and expects its last line to carry exactly the
metrics that BENCHMARK.json names.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import checks
import run

ROOT = Path(__file__).resolve().parent.parent
failures: list = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def first_round(workload) -> list:
    """(key, output, errors) for every operation of round 0."""
    done = []
    for key, op in workload.ops(0):
        out = op()
        done.append((key, out, workload.after(key, out)))
    return done


def test_workloads_pass() -> tuple:
    run.OUT.mkdir(exist_ok=True)
    sweep_w = run.SweepReference(0, traced=False)
    done = first_round(sweep_w)
    expect(all(not e for *_, e in done), "sweep-reference: round 0 rows pass their checks")
    errors, _ = sweep_w.finish(1)
    expect(not errors, "sweep-reference: rows CSV reads back equal")

    part_w = run.PartitionLarge(0, traced=False)
    parts = first_round(part_w)
    expect(all(not e for *_, e in parts), "partition-large: round 0 partitions pass their checks")
    expect(len(part_w.makespans) == len(parts), "partition-large: every partition simulated as a placement")

    sim_w = run.SimulateUnits(0, traced=False)
    sims = first_round(sim_w)
    expect(all(not e for *_, e in sims), "simulate-units: round 0 simulations pass their checks")
    return sweep_w, parts, sims


def test_corruptions_caught(sweep_w, parts, sims) -> None:
    (kind, r, k, arch, h), p, _ = parts[0]  # k = 2
    flip = None
    for v in range(h.n_vertices):
        labels = list(p.parts)
        labels[v] = (labels[v] + 1) % k
        if checks.connectivity(h.pins, h.weights, labels) != p.lam:
            flip = tuple(labels)
            break
    expect(flip is not None and bool(checks.check_partition(h, k, 1.10, dataclasses.replace(p, parts=flip))),
           "flipped part label is caught")
    expect(bool(checks.check_partition(h, k, 1.10, dataclasses.replace(p, lam=p.lam + 1))), "lam off by one is caught")
    merged = tuple(0 if x == 1 else x for x in p.parts)
    expect(bool(checks.check_partition(h, k, 1.10, dataclasses.replace(p, parts=merged))), "an empty part is caught")
    expect(bool(checks.check_partition(h, k, 1.10, dataclasses.replace(p, best_effort=True))),
           "best_effort where LPT packing fits is caught")
    rising = p.lam_history + (p.lam_history[-1] + 1,)
    expect(bool(checks.check_partition(h, k, 1.10, dataclasses.replace(p, lam_history=rising))),
           "increasing lam_history is caught")

    _, (arch, results), _ = sims[0]
    cost = run.deploy.CostParams()
    n, sim = results[3]
    compute = [f / cost.flops_per_time for f in arch.vertex_flops]
    cp = checks.critical_path(arch.dag.n_vertices, arch.dag.edges, compute)
    expect(bool(checks.check_simulation(arch, n, dataclasses.replace(sim, makespan=0.99 * cp), cost)),
           "makespan below the critical path is caught")
    busy = (sim.unit_busy[0] * 0.5,) + sim.unit_busy[1:]
    expect(bool(checks.check_simulation(arch, n, dataclasses.replace(sim, unit_busy=busy), cost)),
           "unit busy time short of total compute is caught")

    row = dict(sweep_w.rows[0], cs=sweep_w.rows[0]["cs"] * 1.01)
    expect(bool(checks.check_row(row, sweep_w.cfg.eps_grid, sweep_w.cfg.weights)), "row CS off by 1% is caught")
    rows = [dict(r) for r in sweep_w.rows]
    rows[-1]["makespan"] += 1.0
    expected = {(r["generator"], r["sample"], r["n_units"]) for r in rows}
    expect(bool(checks.check_rows_csv(rows, run.OUT / "sweep-reference.rows.csv", expected)),
           "CSV that differs from the rows is caught")


def test_result_line() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", "simulate-units", "--seed", "0",
             "--seconds", "0.5", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        expect(done.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
               f"trace {trace}: run.py exits 0 with one result object")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"trace {trace}: all operations pass")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == want, f"trace {trace}: metrics and units are those of BENCHMARK.json {section}")


if __name__ == "__main__":
    sweep_w, parts, sims = test_workloads_pass()
    test_corruptions_caught(sweep_w, parts, sims)
    test_result_line()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)
