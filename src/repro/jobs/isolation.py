"""Provable isolation: solo-vs-contended fingerprint cross-checks.

The isolation claim of :mod:`repro.jobs` is stronger than "ledgers
conserve per tenant": a tenant sharing a saturated fleet with seven
neighbors must compute the *byte-identical result* it would compute
alone on an empty fleet.  Contention is allowed to cost a tenant time,
never bytes.

That only holds when nothing legally time-dependent is enabled —
leave ``codel_target`` unset and expect governor-degraded, cancelled
or faulted tenants to be skipped (their results differ by design, and
each carries a flag saying so).

Also home to :func:`jains_index`, the fairness figure of merit reported
by ``benchmarks/test_tenancy_fairness.py`` and the jobs CLI.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.jobs.config import JobSpec, TenancyConfig

__all__ = ["jains_index", "solo_fingerprint", "isolation_violations"]


def jains_index(values) -> float:
    """Jain's fairness index ``(Σv)² / (n · Σv²)`` over *values*.

    1.0 means perfectly equal shares; ``1/n`` means one party got
    everything.  Empty or all-zero inputs count as perfectly fair.
    """
    vals = [float(v) for v in values]
    square_sum = sum(v * v for v in vals)
    if not vals or square_sum == 0.0:
        return 1.0
    total = sum(vals)
    return (total * total) / (len(vals) * square_sum)


def solo_fingerprint(spec: JobSpec, config: Optional[TenancyConfig] = None) -> str:
    """*spec*'s result fingerprint on an otherwise-empty fleet.

    Runs the job alone through a fresh :class:`~repro.jobs.JobManager`
    on the same :class:`TenancyConfig` (preemption stripped — a solo
    run is the un-governed reference), and returns its physics-level
    fingerprint: the ground truth the contended run is compared to.
    """
    from repro.jobs.manager import JobManager

    config = dataclasses.replace(config or TenancyConfig(), preemption=None)
    manager = JobManager(config)
    manager.submit(spec)
    report = manager.run()
    report_result = report.results[spec.tenant]
    return report_result.fingerprint


def isolation_violations(report, config: Optional[TenancyConfig] = None) -> list[str]:
    """Cross-check every tenant of a contended run against its solo run.

    For each tenant in *report* (a :class:`~repro.jobs.JobsReport`)
    whose results are still required to be contention-independent —
    i.e. not cancelled, not degraded, not flagged as perturbed by the
    governor or by faults — re-run its spec solo and compare
    fingerprints byte-for-byte.  Returns one line per violation.
    """
    out: list[str] = []
    for tenant, result in report.results.items():
        if result.cancelled:
            continue
        if result.perturbed or result.degraded_steps > 0:
            continue
        if report.checker.checker(tenant).perturbed:
            continue
        solo = solo_fingerprint(result.spec, config)
        if solo != result.fingerprint:
            out.append(
                f"tenant {tenant}: contended fingerprint "
                f"{result.fingerprint[:16]}… != solo {solo[:16]}… — "
                "contention changed this tenant's results"
            )
    return out
