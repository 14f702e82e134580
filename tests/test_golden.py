"""Golden digest of a small fixed sweep.

Refactors and performance changes must leave ``rows.csv`` byte-identical.
A change that alters behaviour updates the digest on purpose and says why
in CHANGES.md.
"""

from __future__ import annotations

import hashlib

from concnas.sweep import SweepConfig, run_sweep, write_rows_csv

GOLDEN_ROWS_SHA256 = "3aefa5f0b37a6624f078e17a2ab53954cecea812b5656c269a64df90109bc377"


def test_small_sweep_rows_match_golden_digest(tmp_path):
    rows = run_sweep(SweepConfig(samples=4))
    assert len(rows) == 80
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_ROWS_SHA256
