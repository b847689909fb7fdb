"""Perf-regression harness tests (``@pytest.mark.perf``).

Two layers:

- always-on structural tests drive every bench in
  :data:`repro.perf.bench.BENCHES` at smoke size through the one driver
  — record shape, guard keys, sidecar round-trip — and the ``compare``
  guard logic itself (it must both catch regressions and ignore
  host-speed noise);
- the committed baselines are validated as data: well-formed JSON, the
  acceptance-floor kernels pinned at >= 3x;
- ``--perf-baseline [DIR|default]`` unlocks the timed full-size run
  that diffs live guards against the committed ``BENCH_*.json``
  (skipped otherwise — tier-1 stays fast and host-independent).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.perf import bench, kernels

pytestmark = pytest.mark.perf

SMOKE_N = 20_000


# ---------------------------------------------------------------------
# record shape (smoke-sized, fast, deterministic structure)
# ---------------------------------------------------------------------

#: smoke-size command line per bench
SMOKE_ARGV = {
    "kernels": ["--n", str(SMOKE_N)],
    "query": ["--loads", "50", "--duration", "0.25"],
    "stream": ["--steps", "3"],
    "scale": ["--scale-ranks", "256", "512"],
    "chaos_matrix": ["corrupt-chunk", "--fast", "--repeats", "1"],
}


def _check_kernels(record):
    assert record["n"] == SMOKE_N
    assert set(record["kernels"]) == set(kernels.NAIVE)
    for name, row in record["kernels"].items():
        assert row["naive_seconds"] > 0 and row["vectorized_seconds"] > 0
        assert record["guards"][f"speedup:{name}"] == row["speedup"]


def _check_query(record):
    assert len(record["points"]) == 1
    assert record["guards"]["served:load50"] > 0.0


BENCH_SPECIFIC = {"kernels": _check_kernels, "query": _check_query}


def test_smoke_covers_every_registered_bench():
    assert set(SMOKE_ARGV) == set(bench.BENCHES)


@pytest.mark.parametrize("name", list(SMOKE_ARGV))
def test_bench_record_shape(name, tmp_path, capsys):
    """Each registered bench, driven the way the CLI drives it."""
    assert bench.run_benches([name], [*SMOKE_ARGV[name], "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / f"BENCH_{name}.json").read_text())
    # the chaos-matrix record predates the "bench" key and its
    # committed baseline pins the shape
    assert record.get("bench", name) == name
    assert record["guards"], "no guards to enforce"
    for key, val in record["guards"].items():
        assert isinstance(val, (int, float)) and math.isfinite(val) and val >= 0, key
    assert bench.write_record(name, record, tmp_path / "again").read_bytes() == (
        tmp_path / f"BENCH_{name}.json"
    ).read_bytes()
    BENCH_SPECIFIC.get(name, lambda record: None)(record)
    assert f"[perf] {name}: wrote" in capsys.readouterr().out


def test_write_record_sidecar_round_trips(tmp_path):
    record = {"bench": "kernels", "guards": {"speedup:x": 2.0}}
    path = bench.write_record("kernels", record, tmp_path / "out")
    assert path.name == "BENCH_kernels.json"
    assert json.loads(path.read_text()) == record


# ---------------------------------------------------------------------
# the guard logic itself
# ---------------------------------------------------------------------

def test_compare_catches_a_regression():
    base = {"guards": {"speedup:histogram1d": 10.0}}
    bad = {"guards": {"speedup:histogram1d": 7.9}}  # > 20 % below
    ok = {"guards": {"speedup:histogram1d": 8.1}}  # within tolerance
    assert bench.compare(bad, base) != []
    assert bench.compare(ok, base) == []


def test_compare_flags_missing_guards():
    base = {"guards": {"speedup:histogram1d": 10.0}}
    problems = bench.compare({"guards": {}}, base)
    assert problems and "missing" in problems[0]


def test_compare_only_enforces_baseline_guards():
    """New guards in the current run must not fail an older baseline,
    and absolute seconds are never compared."""
    base = {"guards": {"speedup:a": 2.0}, "encode_seconds": 1e-9}
    cur = {"guards": {"speedup:a": 2.0, "speedup:b": 0.1}, "encode_seconds": 99.0}
    assert bench.compare(cur, base) == []


def test_compare_never_fails_on_host_speed():
    """``scale``'s guards are events/second on the recording host: a
    slower host is not a regression (its exact pins are
    ``benchmarks/perf/test_perf_scale.py``)."""
    base = json.loads((bench.default_baseline_dir() / "BENCH_scale.json").read_text())
    slow = {"guards": {k: v / 10 for k, v in base["guards"].items()}}
    assert bench.compare(slow, base) == []


# ---------------------------------------------------------------------
# committed baselines as data
# ---------------------------------------------------------------------

def test_one_committed_baseline_per_registered_bench():
    """An orphaned ``BENCH_*.json`` (its bench gone) fails here."""
    committed = {p.name for p in bench.default_baseline_dir().glob("BENCH_*.json")}
    assert committed == {f"BENCH_{name}.json" for name in bench.BENCHES}


@pytest.mark.parametrize("name", list(bench.BENCHES))
def test_committed_baseline_is_well_formed(name):
    path = bench.default_baseline_dir() / f"BENCH_{name}.json"
    baseline = json.loads(path.read_text())
    assert baseline.get("bench", name) == name
    assert baseline["guards"], f"{path} has no guards to enforce"
    assert all(v > 0 for v in baseline["guards"].values())


def test_committed_kernel_baseline_meets_acceptance_floor():
    """ISSUE 5 acceptance: histogram / 2-D histogram / bitmap encode
    hold >= 3x over naive at 1M elements in the committed record."""
    path = bench.default_baseline_dir() / "BENCH_kernels.json"
    baseline = json.loads(path.read_text())
    assert baseline["n"] >= 1_000_000
    for name in bench.HOT_KERNELS:
        assert baseline["kernels"][name]["speedup"] >= 3.0
        assert baseline["guards"][f"speedup:{name}"] >= 3.0


# ---------------------------------------------------------------------
# the timed full-size guard (opt-in: --perf-baseline)
# ---------------------------------------------------------------------

@pytest.mark.parametrize("name", ["kernels", "query"])
def test_full_size_guards_match_baseline(perf_baseline_dir, name, tmp_path):
    if not (perf_baseline_dir / f"BENCH_{name}.json").exists():
        pytest.skip(f"no baseline for {name} in {perf_baseline_dir}")
    argv = ["--out", str(tmp_path), "--baseline", str(perf_baseline_dir)]
    assert bench.run_benches([name], argv) == 0
