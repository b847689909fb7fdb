"""``python -m repro scenarios`` — the adversarial scenario library.

Three verbs:

- ``list``            — registered scenarios with threat + invariants
- ``run <name>``      — one scenario against the chaos workload
- ``sweep``           — every scenario twice (the chaos matrix),
  writing ``BENCH_chaos_matrix.json`` and optionally guarding against
  the committed baseline: the ``chaos_matrix`` bench of
  :mod:`repro.perf.bench`, whose flags live beside
  :func:`repro.scenarios.runner.sweep`
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.report import format_table

__all__ = ["main"]


def _cmd_list() -> int:
    from .base import get, names

    rows = []
    for name in names():
        spec = get(name)
        rows.append(
            [
                name,
                "yes" if spec.needs_regions else "-",
                spec.summary,
                str(len(spec.invariants)),
            ]
        )
    print(
        format_table(
            ["scenario", "regional", "summary", "invariants"],
            rows,
            title="registered adversarial scenarios (see THREATS.md)",
        )
    )
    return 0


def _cmd_run(args) -> int:
    from .runner import run_named

    result = run_named(
        args.name, seed=args.seed, intensity=args.intensity, fast=args.fast
    )
    print(f"scenario      : {', '.join(result.scenarios)}")
    print(f"seed          : {result.seed}   intensity: {args.intensity}")
    print(f"complete      : {'yes' if result.complete else 'NO'}"
          + (f"  (missing steps {result.missing_steps})"
             if result.missing_steps else ""))
    print(f"wall          : {result.wall_seconds:.3f} s")
    print(f"faults fired  : {result.faults_fired} "
          f"({', '.join(result.fault_kinds) or 'none'})")
    print(f"fetch retries : {result.fetch_retries}   "
          f"restarts: {result.restarts}")
    print(f"invariants    : {', '.join(result.invariants)}")
    if result.violations:
        for v in result.violations:
            print(f"VIOLATION     : {v}")
    else:
        print("violations    : none (all ledgers balance)")
    print(f"schedule hash : {result.schedule_hash}")
    print(f"fingerprint   : {result.fingerprint}")
    return 0 if result.surviving else 1


def main(argv: list | None = None) -> int:
    """Run the scenarios CLI; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["sweep"]:
        from repro.perf.bench import run_benches

        return run_benches(["chaos_matrix"], argv[1:], "repro scenarios sweep")
    ap = argparse.ArgumentParser(
        prog="repro scenarios",
        description="adversarial scenario library (threat model: THREATS.md)",
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    sub.add_parser("list", help="registered scenarios")

    run_p = sub.add_parser("run", help="run one scenario by name")
    run_p.add_argument("name", help="registered scenario name")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--intensity", type=float, default=1.0)
    run_p.add_argument(
        "--fast", action="store_true",
        help="trimmed workload (128 logical ranks, 2 steps)",
    )

    # dispatched above; listed here so `scenarios --help` shows it
    sub.add_parser("sweep", help="the chaos matrix: `repro perf chaos_matrix` under this name")
    args = ap.parse_args(argv)
    return _cmd_list() if args.verb == "list" else _cmd_run(args)
