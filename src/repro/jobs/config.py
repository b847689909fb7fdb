"""Job and tenancy configuration for the multi-tenant service layer.

A :class:`JobSpec` describes one tenant's pipeline — which verification
workload it runs (the seeded generators of :mod:`repro.check.workloads`),
how many compute processes and steps, and its *priority tier* and
*fair-share weight*.  A :class:`TenancyConfig` describes the shared
staging fleet every job lands on: the flow-control knobs the per-tenant
carves derive from, and the optional :class:`PreemptionConfig` ladder
the pressure governor walks when the fleet saturates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.flow import FlowConfig

__all__ = ["JobSpec", "PreemptionConfig", "TenancyConfig"]


@dataclass(frozen=True)
class JobSpec:
    """One tenant's pipeline submission.

    Attributes
    ----------
    tenant:
        Unique job name; qualifies chunk keys, ledgers, metrics and
        trace tracks everywhere downstream.
    kind:
        Operator workload (any of ``repro.check.OPERATOR_KINDS``).
    nprocs / nsteps / seed:
        The seeded-workload shape, as in
        :func:`repro.check.workloads.run_workload` — identical values
        produce byte-identical inputs, which is what makes the
        solo-vs-contended fingerprint cross-check meaningful.
    priority:
        Preemption tier; **lower** tiers are degraded/paused first when
        the fleet saturates.  Ties break by tenant name.
    weight:
        Fair-share weight.  A tenant's buffer-pool and credit carves
        are ``weight / sum(weights)`` of each shared budget; idle
        carve is borrowable by the others (work-conserving).
    """

    tenant: str
    kind: str = "sort"
    nprocs: int = 4
    nsteps: int = 2
    seed: int = 0
    priority: int = 1
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant name must be non-empty")
        if self.nprocs < 1:
            raise ValueError("need at least one compute process")
        if self.nsteps < 1:
            raise ValueError("need at least one step")
        if self.weight <= 0:
            raise ValueError("fair-share weight must be positive")


@dataclass(frozen=True)
class PreemptionConfig:
    """The pressure-driven preemption ladder.

    The governor polls the fleet's node share groups every
    ``poll_interval`` simulated seconds and compares the worst group
    severity (pool occupancy mapped to [0, 1] between the low and high
    watermarks) against two thresholds, always picking victims from the
    lowest priority tier up:

    1. ``severity >= degrade_severity`` — the victim's writes *degrade*
       to the synchronous fallback path (its data still lands, but via
       the file system instead of the staging pipeline);
    2. ``severity >= pause_severity`` — the victim's admission gate
       closes entirely: its writes hold at the transport until pressure
       recedes.

    Recovery is hysteretic: both actions are undone only once severity
    falls back to ``resume_severity``.
    """

    degrade_severity: float = 0.85
    pause_severity: float = 0.97
    resume_severity: float = 0.40
    poll_interval: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.resume_severity < self.degrade_severity:
            raise ValueError("need 0 < resume_severity < degrade_severity")
        if not self.degrade_severity <= self.pause_severity <= 1.0:
            raise ValueError("need degrade_severity <= pause_severity <= 1")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


@dataclass(frozen=True)
class TenancyConfig:
    """Shared-fleet configuration for a :class:`~repro.jobs.JobManager`.

    ``flow`` parameterises the *physical* budgets the per-tenant carves
    split (pool size per staging node, watermarks, spill).  Leave
    ``codel_target`` unset for provable isolation: CoDel degradation
    under contention legally changes a tenant's results versus its solo
    run, which the fingerprint cross-check would then (correctly) flag.
    """

    flow: FlowConfig = field(default_factory=FlowConfig)
    preemption: Optional[PreemptionConfig] = None
    nstaging_nodes: int = 1

    def __post_init__(self) -> None:
        if self.nstaging_nodes < 1:
            raise ValueError("need at least one staging node")
