"""Golden digest of a small fixed sweep.

Refactors and performance changes must leave ``rows.csv`` byte-identical.
A change that alters behaviour updates the digest on purpose and says why
in CHANGES.md.
"""

from __future__ import annotations

import hashlib

from concnas.sweep import SweepConfig, run_sweep, write_rows_csv

GOLDEN_ROWS_SHA256 = "b254c54c2f7fec93dd30b73706534b13bc4a5897455e4b7df3796301cff22d90"


def test_small_sweep_rows_match_golden_digest(tmp_path):
    rows = run_sweep(SweepConfig(samples=4))
    assert len(rows) == 80
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_ROWS_SHA256
