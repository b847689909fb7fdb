"""``python -m repro scenarios`` — the adversarial scenario library.

Four verbs:

- ``list``            — registered scenarios with threat + invariants
- ``run <name>``      — one scenario against the chaos workload
- ``chaos``           — the recovery table: ``staging-crash`` at 512,
  1024 and 2048 logical ranks beside its no-fault baseline, optionally
  traced (``--trace``) and under flow control (``--flow``)
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


def _cmd_chaos(args) -> int:
    from repro.experiments.report import fmt_pct, fmt_seconds

    from .runner import run_chaos

    obs = None
    workload = {}
    if args.trace is not None:
        from repro.obs import Observability

        obs = workload["obs"] = Observability(label="chaos")
    if args.flow is not None:
        # a deeper fetch pipeline, so the pool cap genuinely bites
        workload.update(flow_fraction=args.flow, fetch_pipeline_depth=6)
    table = [
        [
            r.logical_ranks,
            r.predata.nstaging_procs,
            r.killed_node,
            fmt_seconds(r.detection_seconds) if r.detection_seconds else "-",
            fmt_seconds(r.recovery_seconds) if r.recovery_seconds else "-",
            r.restarts,
            r.fetch_retries,
            "yes" if r.complete else "NO",
            fmt_pct((r.wall_seconds - base_wall) / base_wall),
        ]
        for r, base_wall in run_chaos(**workload)
    ]
    print(
        format_table(
            ["logical ranks", "stagers", "killed node", "detect", "recover",
             "restarts", "retries", "all steps readable", "overhead"],
            table,
            title="Chaos: one staging node killed mid-step (seeded, deterministic)",
        )
    )
    if obs is not None:
        print()
        print(obs.report(args.trace, "Chaos metrics"))
    return 0


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

    chaos_p = sub.add_parser(
        "chaos", help="staging-node crash recovery at 512-2048 logical ranks"
    )
    chaos_p.add_argument(
        "--trace", nargs="?", const="chaos_trace.json", default=None, metavar="PATH",
        help="write a Chrome trace (default PATH: chaos_trace.json) "
             "plus a .jsonl sidecar and a metrics summary",
    )
    chaos_p.add_argument(
        "--flow", nargs="?", const=0.25, default=None, type=float, metavar="FRACTION",
        help="enable flow control; cap each staging node's buffer pool "
             "at FRACTION of its per-step working set (default 0.25)",
    )

    # dispatched above; listed here so `scenarios --help` shows it
    sub.add_parser("sweep", help="the chaos matrix: `repro perf chaos_matrix` under this name")
    args = ap.parse_args(argv)
    if args.verb == "list":
        return _cmd_list()
    return _cmd_chaos(args) if args.verb == "chaos" else _cmd_run(args)
