"""Smoke tests of the pipeline benchmark on its ``--quick`` profile.

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline -q``
(not collected by tier-1's ``testpaths``).
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*argv, env=None, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One --quick run of every workload, untraced and traced."""
    out = tmp_path_factory.mktemp("pipeline") / "result.json"
    proc = run_bench("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"doc": json.loads(out.read_text()), "last": last, "dir": out.parent}


def test_every_declared_metric_is_reported(quick):
    assert quick["last"]["correct"] and quick["last"]["failed"] == 0
    assert quick["doc"]["failed_frac"] == 0
    for wl in WORKLOADS:
        entry = quick["doc"]["workloads"][wl]
        for kind in ("end_to_end", "per_layer"):
            got = entry[kind]
            assert set(got) == {m["name"] for m in SPEC[kind]}, (wl, kind)
            for m in SPEC[kind]:
                assert NAME.fullmatch(m["name"])
                assert got[m["name"]]["unit"] == m["unit"], (wl, m["name"])
                assert f"{wl}/{m['name']}" in quick["last"]["metrics"]
        for m in SPEC["end_to_end"]:  # never 0: the driver divides by them
            assert entry["end_to_end"][m["name"]]["value"] > 0


def test_layers_account_for_the_traced_time(quick):
    for wl in WORKLOADS:
        trace = json.loads((quick["dir"] / f"trace_{wl}.json").read_text())
        total = trace["traced_wall_s"]
        assert sum(r["self_s"] for r in trace["layers"].values()) == \
            pytest.approx(total, rel=0.01)
        assert trace["unattributed_frac"] <= 0.05
        assert trace["overhead"] > 0
        for edge in trace["edges"]:
            assert edge["caller"] != edge["callee"]


def test_perturbed_expectation_fails_the_run(tmp_path):
    doc = json.loads((HERE / "expected.json").read_text())
    doc["quick"]["serve_sweep"]["load400.p99"] *= 1.001
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(doc))
    proc = run_bench("--quick", "--workload", "serve_sweep", "--trace", "0",
                     "--expected", str(bad), "--out", str(tmp_path / "r.json"))
    assert proc.returncode != 0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not last["correct"] and last["failed"] > 0
    assert json.loads((tmp_path / "r.json").read_text())["failed_frac"] > 0


def test_other_seed_runs_clean(tmp_path):
    proc = run_bench("--quick", "--workload", "stream_coupled", "--seed", "12",
                     "--trace", "0", "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 0, proc.stderr


def test_backend_override_aborts(tmp_path):
    env = dict(os.environ, REPRO_KERNELS="naive")
    proc = run_bench("--quick", "--workload", "serve_sweep", "--trace", "0",
                     "--out", str(tmp_path / "r.json"), env=env)
    assert proc.returncode != 0
    assert "REPRO_KERNELS" in proc.stderr


def test_no_result_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files: fail, print nothing."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "gtc_ops", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "benchmarks" / "pipeline" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts(quick):
    doc = quick["doc"]
    rows, regressed = compare.compare(doc, doc, SPEC)
    assert len(rows) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert not regressed and {r["verdict"] for r in rows} == {"same"}

    slower = json.loads(json.dumps(doc))
    wall = slower["workloads"]["gtc_ops"]["end_to_end"]["wall_s"]
    wall["value"] *= 1.5
    wall["samples"] = [s * 1.5 for s in wall["samples"]]
    rows, regressed = compare.compare(doc, slower, SPEC)
    assert regressed
    assert [(r["workload"], r["metric"]) for r in rows
            if r["verdict"] == "worse"] == [("gtc_ops", "wall_s")]
    rows, regressed = compare.compare(slower, doc, SPEC)
    assert not regressed and "better" in {r["verdict"] for r in rows}

    failing = dict(doc, failed_frac=0.01)
    assert compare.compare(doc, failing, SPEC)[1]

    steady = {"median": 1.0, "min": 0.99, "max": 1.01}
    burst = {"median": 1.4, "min": 1.0, "max": 1.5}  # overlaps steady's range
    assert compare.verdict(steady, burst, "lower", 0.1) == "unresolved"
    clear = {"median": 1.4, "min": 1.3, "max": 1.5}
    assert compare.verdict(steady, clear, "lower", 0.1) == "worse"
