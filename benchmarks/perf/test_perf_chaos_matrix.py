"""Chaos-matrix benchmark: the full adversarial sweep, guarded.

Runs every registered scenario twice (the within-process determinism
check) at full intensity on the fast workload and guards four
host-independent *fractions* against the committed baseline — all
pinned at 1.0, so with the 20 % tolerance any scenario losing
completeness, leaking a ledger, or breaking seeded determinism fails
the guard.  Raw fingerprints ride along in the rows for human diffing
but are deliberately unguarded (they may shift across numpy versions).
"""

from __future__ import annotations

import pytest

from repro.scenarios import names
from repro.scenarios.runner import sweep

pytestmark = pytest.mark.perf


def test_chaos_matrix_guards_hold(bench_guard):
    record = bench_guard("chaos_matrix", sweep(fast=True))
    guards = record["guards"]
    # the fractions must be exactly perfect, not merely within tolerance
    assert guards["scenarios_registered"] >= 9
    assert guards["complete_fraction"] == 1.0
    assert guards["invariant_clean_fraction"] == 1.0
    assert guards["determinism_fraction"] == 1.0
    assert len(record["rows"]) == len(names())
    for row in record["rows"]:
        assert row["violations"] == [], row["scenario"]
