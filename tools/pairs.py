#!/usr/bin/env python3
"""Alternating parent/change pairs of the pipeline benchmark, with the verdict.

    python tools/pairs.py PARENT_DIR CHANGE_DIR --workload W
                          [--pairs 10] [--seconds 12] [--seed N] [--quick]

Each tree runs its *own* ``benchmarks/pipeline/run.py --workload W --trace 0``
from its own directory, one run at a time, the side that goes first
alternating pair by pair.  Every run is printed as it finishes.  Then, for
each end-to-end metric the parent's ``BENCHMARK.json`` declares: each side's
median and quartiles, how many pairs the change won, and the verdict of the
choosing-metrics guide — a gain only when the change wins at least nine
tenths of the pairs (ties count for neither) *and* the medians differ by more
than the parent's own interquartile range.  Beside it, the bound verdict of
``benchmarks/pipeline/compare.py`` over the two sides' per-run values:
``better``, ``same``, ``worse`` or ``unresolved`` against the metric's
``BENCHMARK.json`` bound (``unresolved``: a side's min-max spread exceeds
the bound and the two ranges overlap).  ``setup_s`` and ``peak_rss_mb``
get the same table as the time metrics so that a drifting host shows up as
drift, not as a result.

Exits 1 if any run failed a check (``failed_frac`` > 0) or did not finish.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: the guide asks for at least ten pairs before anything is claimed
MIN_PAIRS = 10

_COMPARE = Path(__file__).resolve().parents[1] / "benchmarks" / "pipeline" / "compare.py"
_spec = importlib.util.spec_from_file_location("pipeline_compare", _COMPARE)
_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_compare)


def run_once(tree: Path, out: Path, args) -> dict | None:
    """One ``run.py --trace 0`` of *tree*; its result document, or None."""
    cmd = [sys.executable, "benchmarks/pipeline/run.py", "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", "0", "--out", str(out)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if not out.is_file():
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
        return None
    return json.loads(out.read_text())


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is all three."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def bound_verdict(parent: list[float], change: list[float], better: str,
                  bound: float) -> str:
    """``compare.py``'s verdict for the change against the parent, each
    side's per-run values taken as that side's samples."""
    def stats(xs):
        return {"median": statistics.median(xs), "min": min(xs), "max": max(xs)}

    return _compare.verdict(stats(parent), stats(change), better, bound)


def judge(parent: list[float], change: list[float], better: str) -> dict:
    """The guide's rule for one metric over paired samples."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gap, iqr = sign * (pmed - cmed), pq3 - pq1
    need = 0.9 * len(parent)
    if len(parent) < MIN_PAIRS:
        verdict = f"needs {MIN_PAIRS} pairs"
    elif wins >= need and gap > iqr:
        verdict = "gain"
    elif losses >= need and -gap > iqr:
        verdict = "loss"
    else:
        verdict = "not shown"
    return {"parent": (pmed, pq1, pq3), "change": (cmed, cq1, cq3),
            "wins": wins, "losses": losses, "iqr": iqr, "verdict": verdict,
            "ratio": pmed / cmed if better == "lower" else cmed / pmed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--seed", type=int, help="workload seed (default: run.py's own)")
    p.add_argument("--quick", action="store_true", help="run.py's smoke-test profile")
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    samples = {side: {m["name"]: [] for m in metrics} for side in trees}
    failed = False
    tmp = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                doc = run_once(trees[side], tmp / f"{side}-{i}" / "result.json", args)
                if doc is None:
                    print(f"pair {i + 1:2d} {side:6s} did not finish")
                    return 1
                e2e = doc["workloads"][args.workload]["end_to_end"]
                for m in metrics:
                    samples[side][m["name"]].append(e2e[m["name"]]["value"])
                failed |= doc["failed_frac"] > 0
                print(f"pair {i + 1:2d} {side:6s} "
                      + "  ".join(f"{m['name']} {e2e[m['name']]['value']:.4g}" for m in metrics)
                      + f"  failed_frac {doc['failed_frac']:.3g}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"\n{args.workload}: {args.pairs} pair(s), --seconds {args.seconds:g}"
          + (f", --seed {args.seed}" if args.seed is not None else "")
          + (", --quick" if args.quick else ""))
    print(f"{'metric':12s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s}"
          f"  {'ratio':>6s}  wins  parent IQR  verdict    bound")
    for m in metrics:
        parent, change = samples["parent"][m["name"]], samples["change"][m["name"]]
        r = judge(parent, change, m["better"])
        (pm, p1, p3), (cm, c1, c3) = r["parent"], r["change"]
        print(f"{m['name']:12s} {pm:12.5g} [{p1:8.5g},{p3:8.5g}] "
              f"{cm:12.5g} [{c1:8.5g},{c3:8.5g}]  {r['ratio']:5.3f}x "
              f"{r['wins']:2d}/{args.pairs:<2d} {r['iqr']:10.4g}  {r['verdict']:9s}  "
              + bound_verdict(parent, change, m["better"], m["bound"]))
    print("ratio > 1: the change is better; wins: pairs in which it was; "
          "gain/loss: >= 9/10 of the pairs and medians apart by more than the parent's IQR; "
          "bound: compare.py's verdict against the metric's BENCHMARK.json bound")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
