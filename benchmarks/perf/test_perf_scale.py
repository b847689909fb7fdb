"""Weak-scaling regression: 10k/50k/100k ranks vs BENCH_scale.json.

The *simulated* results — final sim time, event count, deferral
counters, fingerprints — must match the committed baseline exactly
(they are deterministic; any drift is a behaviour change, not noise).
The committed values were produced identically by the
heap-queue/dict-bookkeeping reference path that existed until
ISSUE 13, so the baseline file is the reference now.

Events/second at 100k ranks and the weak-scaling ratio are absolute
host-speed numbers (the same code read 56-88 k events/s on one
sandbox): they are written to the sidecar for humans and
``bench.compare`` skips them (``HOST_SPEED_GUARDS``), here and under
``python -m repro perf scale --baseline default`` alike.
"""

from __future__ import annotations

import json

import pytest

from repro.perf import bench

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def scale_record(bench_guard):
    from repro.perf.scale import bench_scale

    return bench_guard("scale", bench_scale())


def test_events_per_sec_guard_present_at_largest_point(scale_record):
    assert scale_record["guards"]["events_per_sec_100000"] > 0
    assert scale_record["guards"]["weak_scaling_ratio"] > 0


def test_sim_results_exact_vs_committed_baseline(scale_record):
    base_path = bench.default_baseline_dir() / "BENCH_scale.json"
    baseline = json.loads(base_path.read_text())
    for nranks, base_point in baseline["points"].items():
        cur = scale_record["points"][nranks]
        for key in (
            "sim_now",
            "events",
            "deferred_fetches",
            "total_defer_seconds",
            "fingerprint",
        ):
            assert cur[key] == base_point[key], (
                f"{nranks} ranks: simulated result {key!r} moved: "
                f"{cur[key]!r} != baseline {base_point[key]!r}"
            )
