"""``python -m repro jobs`` — the multi-tenant service CLI.

Two subcommands:

- ``run`` — admit N tenants concurrently onto one shared staging
  fleet, print a per-tenant table (steps, bytes, throughput, result
  fingerprint), Jain's fairness index over throughputs, and every
  per-tenant ledger violation.  ``--verify-isolation`` additionally
  re-runs each tenant solo and cross-checks fingerprints
  byte-for-byte.
- ``fuzz`` — schedule-perturbation fuzzing of the *whole multi-tenant
  run*: N seeded randomized tie-breaking replays must all produce the
  identical combined per-tenant fingerprint.

Exit status 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import time

from repro.check import OPERATOR_KINDS, ScheduleFuzzer, digest_value
from repro.jobs.config import JobSpec, PreemptionConfig, TenancyConfig
from repro.jobs.isolation import isolation_violations, jains_index
from repro.jobs.manager import JobManager

__all__ = ["main"]

_DEFAULT_KINDS = "sort,histogram"


def _build_specs(args) -> list[JobSpec]:
    kinds = [k for k in args.kinds.split(",") if k]
    unknown = sorted(set(kinds) - set(OPERATOR_KINDS))
    if unknown:
        raise SystemExit(f"unknown workload kind(s): {', '.join(unknown)}")
    return [
        JobSpec(
            tenant=f"t{i}",
            kind=kinds[i % len(kinds)],
            nprocs=args.procs,
            nsteps=args.steps,
            seed=args.seed + i,
            priority=(0 if i < args.low_priority else 1),
        )
        for i in range(args.tenants)
    ]


def _make_config(args) -> TenancyConfig:
    flow_kw = {}
    if args.pool_bytes is not None:
        flow_kw["pool_bytes"] = args.pool_bytes
    preemption = PreemptionConfig() if args.preemption else None
    from repro.flow import FlowConfig

    return TenancyConfig(flow=FlowConfig(**flow_kw), preemption=preemption)


def _run(args) -> int:
    specs = _build_specs(args)
    config = _make_config(args)
    manager = JobManager(config)
    for spec in specs:
        manager.submit(spec)
    t0 = time.time()
    report = manager.run()
    dt = time.time() - t0
    print(f"== {len(specs)} concurrent tenant(s) on a shared staging fleet ==")
    print(f"   {report.summary()}  [{dt:.1f}s wall]")
    header = (
        f"   {'tenant':<8} {'kind':<12} {'prio':>4} {'steps':>5} "
        f"{'MB':>8} {'MB/s':>8}  fingerprint"
    )
    print(header)
    for tenant, res in report.results.items():
        state = " (cancelled)" if res.cancelled else (
            " (degraded)" if res.degraded_steps else "")
        print(
            f"   {tenant:<8} {res.spec.kind:<12} {res.spec.priority:>4} "
            f"{res.steps_written:>5} {res.bytes_written / 1e6:>8.2f} "
            f"{res.throughput / 1e6:>8.3f}  {res.fingerprint[:16]}…{state}"
        )
    throughputs = [
        r.throughput for r in report.results.values() if not r.cancelled
    ]
    print(f"   Jain's fairness index: {jains_index(throughputs):.4f}")
    ok = True
    for line in report.violations:
        print(f"   LEDGER VIOLATION: {line}")
        ok = False
    if not report.violations:
        print("   all per-tenant ledgers conserve independently")
    if args.verify_isolation:
        print("== solo-vs-contended fingerprint cross-check ==")
        broken = isolation_violations(report, config)
        for line in broken:
            print(f"   ISOLATION VIOLATION: {line}")
            ok = False
        if not broken:
            print("   every tenant's result is byte-identical to its solo run")
    print()
    print("jobs run PASSED" if ok else "jobs run FAILED")
    return 0 if ok else 1


def _fuzz(args) -> int:
    specs = _build_specs(args)
    config = _make_config(args)

    def runner(tie_breaker, schedule_trace) -> str:
        manager = JobManager(
            config, tie_breaker=tie_breaker, schedule_trace=schedule_trace
        )
        for spec in specs:
            manager.submit(spec)
        report = manager.run()
        if report.violations:
            raise AssertionError(
                "ledger violation(s) under perturbed schedule:\n  "
                + "\n  ".join(report.violations)
            )
        return digest_value(report.fingerprints())

    print(
        f"== multi-tenant schedule fuzz: {args.runs} seeded run(s), "
        f"{args.tenants} tenant(s) =="
    )
    t0 = time.time()
    report = ScheduleFuzzer(runner).run(args.runs, base_seed=args.seed)
    dt = time.time() - t0
    print(f"   {report.summary()}  [{dt:.1f}s wall]")
    if not report.result_invariant:
        for div in report.divergences:
            print("   DIVERGENCE:")
            for line in div.splitlines():
                print(f"     {line}")
    print()
    print("jobs fuzz PASSED" if report.result_invariant else "jobs fuzz FAILED")
    return 0 if report.result_invariant else 1


def _add_workload_args(sub) -> None:
    sub.add_argument("--tenants", type=int, default=4,
                     help="number of concurrent tenants (default 4)")
    sub.add_argument("--kinds", default=_DEFAULT_KINDS,
                     help=f"comma-separated workload kinds cycled over "
                          f"tenants (default {_DEFAULT_KINDS})")
    sub.add_argument("--procs", type=int, default=4,
                     help="compute processes per tenant (default 4)")
    sub.add_argument("--steps", type=int, default=2,
                     help="output steps per tenant (default 2)")
    sub.add_argument("--seed", type=int, default=0,
                     help="base workload/tie-breaker seed (default 0)")
    sub.add_argument("--pool-bytes", type=float, default=None,
                     help="shared per-node buffer-pool budget the tenant "
                          "carves split (default: full node memory)")
    sub.add_argument("--preemption", action="store_true",
                     help="enable the pressure-driven preemption ladder")
    sub.add_argument("--low-priority", type=int, default=0, metavar="K",
                     help="make the first K tenants priority tier 0 "
                          "(preempted first; default 0)")


def main(argv=None) -> int:
    """Entry point for ``python -m repro jobs``; returns exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro jobs",
        description="PreDatA multi-tenant pipeline service "
                    "(fair-share scheduling, provable isolation)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run N tenants concurrently")
    _add_workload_args(run_p)
    run_p.add_argument(
        "--verify-isolation", action="store_true",
        help="re-run each tenant solo and cross-check fingerprints",
    )

    fuzz_p = sub.add_parser("fuzz", help="schedule-fuzz a multi-tenant run")
    _add_workload_args(fuzz_p)
    fuzz_p.add_argument("--runs", type=int, default=5,
                        help="number of seeded perturbations (default 5)")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args)
    return _fuzz(args)


if __name__ == "__main__":
    import sys

    sys.exit(main())
