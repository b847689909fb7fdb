#!/usr/bin/env python3
"""Compare two result files of ``run.py``: is B worse than A?

    python3 benchmarks/pipeline/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A with its base, and a verdict against the
metric's bound in ``BENCHMARK.json``:

- ``worse`` / ``better``: B's median is beyond the bound on that side;
- ``same``: within the bound;
- ``unresolved``: a side's own min-max spread exceeds the bound and the
  two ranges overlap, so the runs cannot tell.

Exits non-zero on any ``worse`` row or any rise in ``failed_frac``.
Run A and B alternately, minutes apart at most: the shared host drifts
by more than the bounds over tens of minutes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _stats(metric: dict) -> dict:
    samples = metric.get("samples") or [metric["value"]]
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": metric["value"], "q1": q[0], "q3": q[2],
            "min": min(samples), "max": max(samples)}


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Classify B against A for one metric (stats from :func:`_stats`)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    noisy = any((s["max"] - s["min"]) / s["median"] > bound for s in (a, b))
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if noisy and overlap:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def compare(a_doc: dict, b_doc: dict, spec: dict) -> tuple[list[dict], bool]:
    """Rows for every shared (workload, metric), and whether B regressed."""
    rows = []
    for wl in (w["name"] for w in spec["workloads"]):
        a_wl = a_doc["workloads"].get(wl, {}).get("end_to_end")
        b_wl = b_doc["workloads"].get(wl, {}).get("end_to_end")
        if not a_wl or not b_wl:
            continue
        for m in spec["end_to_end"]:
            a, b = _stats(a_wl[m["name"]]), _stats(b_wl[m["name"]])
            rows.append({
                "workload": wl, "metric": m["name"], "unit": m["unit"],
                "a": a, "b": b, "ratio": b["median"] / a["median"],
                "bound": m["bound"],
                "verdict": verdict(a, b, m["better"], m["bound"]),
            })
    regressed = (any(r["verdict"] == "worse" for r in rows)
                 or b_doc["failed_frac"] > a_doc["failed_frac"])
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    rows, regressed = compare(a_doc, b_doc, json.loads(BENCHMARK.read_text()))
    print(f"{'workload':18s} {'metric':12s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s}  B/A            bound verdict")
    for r in rows:
        a, b = r["a"], r["b"]
        print(f"{r['workload']:18s} {r['metric']:12s} "
              f"{a['median']:12.5g} [{a['q1']:9.5g},{a['q3']:9.5g}] "
              f"{b['median']:12.5g} [{b['q1']:9.5g},{b['q3']:9.5g}]  "
              f"{r['ratio']:.3f}x of {a['median']:.4g} {r['unit']}  "
              f"{r['bound']:.2f} {r['verdict']}")
    print(f"failed_frac: A {a_doc['failed_frac']:.6g}, B {b_doc['failed_frac']:.6g}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
