"""Perf-suite fixtures: sidecar emission + committed-baseline guard.

Every test in this directory runs one benchmark group from
:mod:`repro.perf.bench` at full size, writes its ``BENCH_*.json``
sidecar (``BENCH_DIR`` redirects, default: current directory), and
fails if any guard ratio regressed more than 20 % below the committed
baseline in ``benchmarks/perf/baselines/``.

Guards are in-process ratios (vectorized vs naive, zero-copy vs
allocate-per-step), so the comparison holds across host speeds;
absolute seconds in the sidecars are for humans only.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.perf import bench


@pytest.fixture(scope="session")
def bench_guard():
    """Write the sidecar for *record* and diff it against the baseline."""

    def guard(name: str, record: dict) -> dict:
        out_dir = Path(os.environ.get("BENCH_DIR", "."))
        problems = bench.guard_record(name, record, out_dir, bench.default_baseline_dir())
        assert problems == [], f"BENCH_{name}.json:\n" + "\n".join(problems)
        return record

    return guard
