"""``python -m repro check`` — the verification CLI.

Runs the three verification pillars and prints a pass/fail report:

1. **Schedule fuzzing** (``--fuzz N``): the fig-7-style GTC workload
   (512 logical cores, Staging placement, one dump) is executed once
   unperturbed and N times under seeded randomized tie-breaking of
   simultaneous engine events; every run must produce the identical
   physics-level result fingerprint while exploring distinct executed
   schedules.
2. **Differential oracles** (unless ``--no-oracles``): every built-in
   operator's staged output is checked against an offline numpy
   reference on three independently seeded workloads.
3. **Pipeline invariants** (unless ``--no-invariants``): a clean
   pipeline and a chaos run (staging-node crash mid-step) execute with
   the conservation checker enabled; chunk/byte/credit/memory ledgers
   and the §IV.A scheduling rule must all verify at drain.

Exit status 0 when everything passes, 1 otherwise, and 2 for a usage
error: a negative ``--fuzz``, or a run that selects no pillar at all
(``--fuzz 0 --no-oracles --no-invariants`` verifies nothing, so it may
not report PASSED).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.check.fingerprint import result_fingerprint
from repro.check.fuzzer import ScheduleFuzzer
from repro.check.invariants import Checker
from repro.check.oracle import ORACLE_SEEDS, run_differential
from repro.check.workloads import run_workload

__all__ = ["main"]

def _fig7_runner(operation: str):
    """Runner closure for the fuzzer: one fig-7-style GTC staging run."""
    from repro.experiments.runner import FAST_FIG7, run_gtc

    def runner(tie_breaker, schedule_trace) -> str:
        res = run_gtc(
            512,
            "staging",
            operation,
            tie_breaker=tie_breaker,
            schedule_trace=schedule_trace,
            **{**FAST_FIG7, "rep_ranks": 8, "functional_rows": 64},
        )
        return result_fingerprint(res.predata)

    return runner


def _run_fuzz(n: int, operation: str) -> bool:
    print(f"== schedule-perturbation fuzz: {n} seeded run(s), "
          f"fig7 {operation} workload ==")
    t0 = time.time()
    report = ScheduleFuzzer(_fig7_runner(operation)).run(n)
    dt = time.time() - t0
    print(f"   {report.summary()}")
    # host seconds differ run to run: stdout stays a pure function of the tree
    print(f"   [{dt:.1f}s wall]", file=sys.stderr)
    for run in report.runs:
        print(
            f"   {run.label}: result {run.result_hash[:16]}... "
            f"schedule {run.schedule_hash[:16]}... ({run.nevents} events)"
        )
    if not report.result_invariant:
        for div in report.divergences:
            print("   DIVERGENCE:")
            for line in div.splitlines():
                print(f"     {line}")
        return False
    if report.distinct_schedules < 2 and n >= 1:
        print("   WARNING: every seed reproduced the baseline schedule — "
              "the fuzzer found nothing to perturb")
    return True


def _run_oracles() -> bool:
    print(f"== differential operator oracles: seeds {ORACLE_SEEDS} ==")
    results = run_differential()
    for r in results:
        print(f"   {r}")
    ok = all(r.ok for r in results)
    nops = len({r.operator for r in results})
    print(f"   {nops} operator(s) x {len(ORACLE_SEEDS)} seed(s): "
          f"{'all passed' if ok else 'FAILURES'}")
    return ok


def _run_invariants() -> bool:
    from repro.experiments.chaos import run_once

    print("== pipeline conservation invariants ==")
    ok = True

    chk = Checker()
    run = run_workload("sort", seed=1, check=chk)
    broken = chk.violations(run.predata)
    print(f"   clean pipeline: {chk.summary()}")
    for b in broken:
        print(f"     VIOLATION: {b}")
        ok = False
    if not broken:
        print("     all invariants hold")

    chk = Checker()
    chaos = run_once(check=chk)
    broken = chk.violations(chaos.predata)
    print(f"   chaos run (staging-node crash): {chk.summary()}")
    if not chaos.complete:
        print(f"     VIOLATION: steps {chaos.missing_steps} unreadable")
        ok = False
    for b in broken:
        print(f"     VIOLATION: {b}")
        ok = False
    if broken == [] and chaos.complete:
        print("     all invariants hold under failure + recovery")
    return ok


def main(argv=None) -> int:
    """Entry point for ``python -m repro check``; returns exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="PreDatA reproduction verification "
                    "(fuzzing, invariants, oracles)",
    )
    parser.add_argument(
        "--fuzz", type=int, default=10, metavar="N",
        help="number of seeded schedule perturbations (default 10; "
             "0 skips fuzzing)",
    )
    parser.add_argument(
        "--workload", default="sort",
        choices=["sort", "histogram", "histogram2d"],
        help="fig7 operation used by the fuzzer (default sort)",
    )
    parser.add_argument(
        "--no-oracles", action="store_true",
        help="skip the differential operator oracles",
    )
    parser.add_argument(
        "--no-invariants", action="store_true",
        help="skip the pipeline conservation invariants",
    )
    args = parser.parse_args(argv)
    if args.fuzz < 0:
        parser.error(f"--fuzz must be >= 0, got {args.fuzz}")
    if args.fuzz == 0 and args.no_oracles and args.no_invariants:
        parser.error("nothing to verify: --fuzz 0 with --no-oracles and --no-invariants")

    ok = True
    if args.fuzz > 0:
        ok &= _run_fuzz(args.fuzz, args.workload)
    if not args.no_oracles:
        ok &= _run_oracles()
    if not args.no_invariants:
        ok &= _run_invariants()
    print()
    print("verification PASSED" if ok else "verification FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
