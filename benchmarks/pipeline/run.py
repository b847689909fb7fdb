#!/usr/bin/env python3
"""End-to-end pipeline benchmark: host seconds end to end and per layer.

    python3 benchmarks/pipeline/run.py [--workload NAME] [--seed N]
        [--seconds S] [--reps N] [--trace 0|1] [--quick] [--out FILE]

Closed loop, one client: every workload runs alone in a fresh,
single-threaded subprocess (so ``peak_rss_mb`` is its own), which
imports the stack, generates its inputs from ``--seed`` and makes one
untimed warm-up repetition (together: ``setup_s``), then repeats the
workload back to back with ``gc.collect()`` between repetitions.  Every
repetition's outputs are checked.  A timed run is three such workers in
turn, each measuring for a third of ``--seconds``: ``setup_s`` is the
median of their set-ups, the time metrics are the repetition medians of
the quietest worker.  ``--trace 1`` instead runs the repetitions under
``cProfile`` and folds the profile by layer (see ``layers.py``);
end-to-end numbers never come from a traced run.
Without ``--trace`` both runs are made; without ``--workload`` all five
workloads run in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when any check failed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".bench_build" / "pipeline"

WORKLOAD_NAMES = ("gtc_ops", "pixie_merge", "staging_dataplane",
                  "stream_coupled", "serve_sweep")
DEFAULT_SEED = 11
#: fresh workers per timed run; each sets up, then measures --seconds / 3
WORKERS = 3
#: timed repetitions each worker makes at least
MIN_REPS = 2
#: untraced repetitions a traced run makes first, for ``trace.overhead``
UNTRACED_REPS = 2
WORKER_TIMEOUT_S = 170
#: the benchmark measures what users get: no backend/queue overrides
FORBIDDEN_ENV = ("REPRO_KERNELS", "REPRO_ENGINE_QUEUE", "REPRO_KERNEL_WORKERS")
PINNED_ENV = {"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
              # glibc malloc: keep freed heap in the process.  By default it
              # is trimmed and re-faulted every repetition, and page-fault
              # cost on the shared sandbox swings 4x (sys 0.13-0.58 s on 1 s
              # of user time in staging_dataplane); peak RSS is unchanged.
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(4 << 30)}
#: simulated results may drift by ulps (link-sharing rewrite), not more
SIM_RTOL = 1e-6

#: counters a workload leaves alone read 0
IDLE_COUNTERS = {"core.scheduler.deferred_fetches": 0, "serve.cache_hit_frac": 0.0,
                 "serve.shed_frac": 0.0, "stream.redelivered_frac": 0.0}


# -- worker: one workload in this process ------------------------------------

def _sim_mismatches(got: dict, want: dict) -> list[str]:
    """Keys whose simulated value differs from the expectation."""
    bad = [k for k in want if k not in got] + [k for k in got if k not in want]
    for k in want.keys() & got.keys():
        a, b = got[k], want[k]
        if isinstance(b, str) or isinstance(a, str):
            ok = a == b
        else:
            ok = abs(a - b) <= SIM_RTOL * max(abs(a), abs(b)) + 1e-15
        if not ok:
            bad.append(f"{k}: {a!r} != {b!r}")
    return sorted(bad)


class _Verifier:
    """Checks (1)-(3) on one repetition's outputs; keeps the tally."""

    def __init__(self, workload, expected: dict | None):
        self.wl = workload
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.per_rep = 0  # checks one repetition makes (known after the first)
        self.simulated: dict = {}

    def check(self, rep: str, out) -> None:
        results = [("completes", True)]
        results += self.wl.functional(out)
        self.simulated = self.wl.simulated(out)
        if self.expected is not None:
            bad = _sim_mismatches(self.simulated, self.expected)
            results.append(("simulated==expected " + "; ".join(bad[:5]), not bad))
        self.per_rep = len(results)
        self.attempted += len(results)
        for name, ok in results:
            if not ok:
                self.failed += 1
                self.failures.append(f"{rep}: {name}")

    def crashed(self, rep: str, exc: BaseException) -> None:
        """An exception fails every check of that repetition."""
        n = max(self.per_rep, 1)
        self.attempted += n
        self.failed += n
        self.failures.append(f"{rep}: {type(exc).__name__}: {exc}")
        traceback.print_exc()


def _expected_for(workload, seed: int, quick: bool, path: Path) -> dict | None:
    doc = json.loads(path.read_text())
    if workload.seeded and seed != doc["seed"]:
        return None
    return doc["quick" if quick else "full"][workload.name]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker(args) -> int:
    overrides = [v for v in FORBIDDEN_ENV if v in os.environ]
    if overrides:
        print(f"abort: {', '.join(overrides)} set; the benchmark measures "
              "the defaults", file=sys.stderr)
        return 3
    import numpy as np

    from layers import LayerTrace
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    wl.prepare(args.seed, args.quick)
    out = wl.run()  # warm-up: caches fill, lazy imports finish
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}

    verifier = _Verifier(
        wl, None if args.write_expected
        else _expected_for(wl, args.seed, args.quick, Path(args.expected)))
    verifier.check("warm-up", out)
    del out

    def repetitions(label, runner, n_fixed, n_min=1):
        """Run *runner* back to back: *n_fixed* times, or for --seconds
        and at least *n_min* times; returns per-repetition (wall, cpu)."""
        walls, cpus = [], []
        deadline = time.perf_counter() + args.seconds
        while (len(walls) < n_fixed if n_fixed
               else len(walls) < n_min or time.perf_counter() < deadline):
            rep = f"{label} {len(walls)}"
            gc.collect()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = runner()
            except Exception as exc:  # a failed repetition is a result
                out = None
                verifier.crashed(rep, exc)
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
            result["peak_rss_mb"] = _rss_mb()
            if out is not None:
                verifier.check(rep, out)
                result["counters"] = wl.counters(out)
                out = None  # or it stays resident through the next repetition
        return walls, cpus

    if args.worker == "time":
        walls, cpus = repetitions("rep", wl.run, args.reps, MIN_REPS)
        result["reps"] = {"wall_s": walls, "cpu_s": cpus}
    else:
        untraced, _ = repetitions(
            "untraced", wl.run, 1 if args.quick else UNTRACED_REPS)
        trace = LayerTrace(str(SRC))
        repetitions("traced", lambda: trace.run(wl.run), args.reps)
        report = trace.report()
        report["untraced_wall_s"] = statistics.median(untraced)
        report["overhead"] = report["traced_wall_s"] / report["untraced_wall_s"]
        report["dataspaces.put_s"] = trace.inclusive_s("dataspaces/space.py", "put")
        report["dataspaces.get_s"] = trace.inclusive_s("dataspaces/space.py", "get")
        result["trace"] = report

    result.update({
        "work": {"unit": wl.work_unit, "per_rep": wl.work},
        "checks": {"attempted": verifier.attempted, "failed": verifier.failed,
                   "failures": verifier.failures},
        "simulated": verifier.simulated,
        "host": {"python": sys.version.split()[0], "numpy": np.__version__,
                 "nproc": os.cpu_count()},
    })
    print(json.dumps(result))
    return 0


# -- driver: spawns one fresh worker per run -----------------------------------

class WorkerFailed(RuntimeError):
    pass


def spawn(mode: str, workload: str, args, bench_dir: Path) -> dict:
    """Run one worker subprocess to completion; returns its result."""
    env = dict(os.environ, **PINNED_ENV, BENCH_DIR=str(bench_dir))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "run.py"), "--worker", mode,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--expected", str(args.expected),
           "--t0", repr(time.monotonic())]
    if args.reps:
        cmd += ["--reps", str(args.reps)]
    if args.quick:
        cmd.append("--quick")
    if args.write_expected:
        cmd.append("--write-expected")
    try:
        proc = subprocess.run(cmd, env=env, cwd=bench_dir, text=True,
                              stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} {mode}: timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{workload} {mode}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares for *kind*, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[kind]}


def run_timed(workload: str, args, bench_dir: Path) -> dict:
    """End-to-end metrics from WORKERS fresh workers, one after the other.

    Each sets up and measures for its share of --seconds.  The time
    metrics are the repetition medians of the quietest worker (lowest
    median wall): co-tenant slowdowns on the shared host last 15-20 s,
    longer than one worker but rarely as long as all of them.
    """
    n = 1 if (args.quick or args.reps) else WORKERS
    share = argparse.Namespace(**{**vars(args), "seconds": args.seconds / n})
    runs = [spawn("time", workload, share, bench_dir) for _ in range(n)]
    medians = [statistics.median(r["reps"]["wall_s"]) for r in runs]
    quiet = runs[medians.index(min(medians))]
    work = quiet["work"]["per_rep"]

    def reps(key):
        v = quiet["reps"][key]
        return {"value": statistics.median(v), "min": min(v), "max": max(v),
                "n": sum(len(r["reps"][key]) for r in runs), "samples": v}

    wall = reps("wall_s")
    e2e = _declared("end_to_end", {
        "wall_s": wall["value"],
        "cpu_s": statistics.median(quiet["reps"]["cpu_s"]),
        "work_per_s": work / wall["value"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
    })
    e2e["wall_s"].update(wall, worker_medians=medians)
    e2e["cpu_s"].update(reps("cpu_s"))
    e2e["work_per_s"]["samples"] = [work / w for w in wall["samples"]]
    e2e["setup_s"]["samples"] = [r["setup_s"] for r in runs]
    checks = {"attempted": sum(r["checks"]["attempted"] for r in runs),
              "failed": sum(r["checks"]["failed"] for r in runs),
              "failures": [f for r in runs for f in r["checks"]["failures"]]}
    return {**quiet, "end_to_end": e2e, "checks": checks}


def run_traced(workload: str, args, bench_dir: Path, out_dir: Path) -> dict:
    """Per-layer metrics from a traced run; writes trace_<workload>.json."""
    res = spawn("trace", workload, args, bench_dir)
    trace = res["trace"]
    values = {**IDLE_COUNTERS, **res.get("counters", {})}
    for layer, row in trace["layers"].items():
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = row["calls"]
    values.update({
        "machine.network.bytes": res["simulated"]["net_bytes"],
        "sim.engine.sim_s": res["simulated"]["sim_s"],
        "dataspaces.put_s": trace["dataspaces.put_s"],
        "dataspaces.get_s": trace["dataspaces.get_s"],
        "trace.wall_s": trace["traced_wall_s"],
        "trace.overhead": trace["overhead"],
        "trace.unattributed_frac": trace["unattributed_frac"],
    })
    metrics = _declared("per_layer", values)
    res["per_layer"] = metrics
    (out_dir / f"trace_{workload}.json").write_text(
        json.dumps({"workload": workload, "seed": args.seed, **trace}, indent=1))
    return res


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        extra = ""
        if "n" in m:
            extra = f"  (min {m['min']:.4f} max {m['max']:.4f} n {m['n']})"
        print(f"{workload:18s} {name:34s} {m['value']:14.6g} {m['unit']}{extra}")


def write_expected(args, bench_dir: Path) -> int:
    """Regenerate expected.json (a benchmark issue's job, never a perf PR's)."""
    args.seed, args.reps = DEFAULT_SEED, 1
    doc = {"seed": DEFAULT_SEED}
    for profile in ("full", "quick"):
        args.quick = profile == "quick"
        doc[profile] = {w: spawn("time", w, args, bench_dir)["simulated"]
                        for w in WORKLOAD_NAMES}
    Path(args.expected).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.expected}")
    return 0


def driver(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    out_path = Path(args.out).resolve() if args.out else OUT_DIR / "result.json"
    out_dir = out_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    bench_dir = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    try:
        if args.write_expected:
            return write_expected(args, bench_dir)
        return measure(args, bench_dir, out_path)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench_dir, ignore_errors=True)


def measure(args, bench_dir: Path, out_path: Path) -> int:
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    modes = ("0", "1") if args.trace is None else (args.trace,)
    doc = {"seed": args.seed, "quick": args.quick, "seconds": args.seconds,
           "workloads": {}}
    attempted = failed = 0
    final = {}
    for name in names:
        entry = doc["workloads"][name] = {}
        for mode in modes:
            if mode == "0":
                res = run_timed(name, args, bench_dir)
                metrics = entry["end_to_end"] = res["end_to_end"]
                entry["work"] = res["work"]
                print(f"== {name}: seed {args.seed}, "
                      f"{metrics['wall_s']['n']} repetitions of "
                      f"{res['work']['per_rep']} {res['work']['unit']}")
            else:
                res = run_traced(name, args, bench_dir, out_path.parent)
                metrics = entry["per_layer"] = res["per_layer"]
                print(f"== {name}: seed {args.seed}, traced "
                      f"({res['trace']['reps']} repetitions)")
            _print_metrics(name, metrics)
            checks = res["checks"]
            entry.setdefault("checks", []).append(checks)
            attempted += checks["attempted"]
            failed += checks["failed"]
            for line in checks["failures"]:
                print(f"CHECK FAILED {name}: {line}")
            doc["host"] = res["host"]
            prefix = "" if args.workload else f"{name}/"
            final.update({
                f"{prefix}{k}": {"value": m["value"], "unit": m["unit"]}
                for k, m in metrics.items()})
    doc["failed_frac"] = failed / attempted
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"failed_frac {doc['failed_frac']:.6g} ratio "
          f"({failed} of {attempted} checks); result written to {out_path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="one workload (default: all five in turn)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=12.0,
                   help="how long one run repeats its workload")
    p.add_argument("--reps", type=int, default=0,
                   help="fixed number of repetitions instead of --seconds")
    p.add_argument("--trace", choices=("0", "1"),
                   help="0: end-to-end metrics; 1: per-layer metrics from a "
                        "traced run (default: both)")
    p.add_argument("--quick", action="store_true",
                   help="smoke-test profile: small sizes, one repetition")
    p.add_argument("--out", help="result file (default: "
                   ".bench_build/pipeline/result.json); traces go beside it")
    p.add_argument("--expected", default=str(EXPECTED),
                   help="simulated results to check against")
    p.add_argument("--write-expected", action="store_true",
                   help="regenerate --expected at the default seed and exit")
    p.add_argument("--worker", choices=("time", "trace"),
                   help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.quick and not args.reps:
        args.reps = 1
    return worker(args) if args.worker else driver(args)


if __name__ == "__main__":
    sys.exit(main())
