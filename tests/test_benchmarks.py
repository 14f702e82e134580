"""The benchmark still runs against the package's current API, and its
seed-0 outputs stay bit-identical."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "benchmarks/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


# seed-0 digests of each workload's first min_rounds rounds; a change that
# alters any output of the pipeline changes one of them
DIGESTS = {
    "sweep-reference": "419e49092fcafae155fc5740dd684f770569641e53a80e372a2cdf780166f882",
    "partition-large": "04e1840f6aee23a7da41141bc44cc71ea9ac328e6656b3dc0eb3f42f873dd191",
    "simulate-units": "96af0dcf59ccd52e63c54e41da591e312de64894d13304b41faecb73e6d7a220",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_benchmark_digest_is_pinned(workload):
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "0", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert ", 0 failed" in done.stdout and '"correct": true' in done.stdout, done.stdout[-4000:] + done.stderr[-4000:]
    (line,) = [x for x in done.stdout.splitlines() if x.startswith(f"digest {workload} ")]
    assert line.split("sha256=")[1] == DIGESTS[workload]
