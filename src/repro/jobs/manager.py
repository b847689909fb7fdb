"""The multi-tenant job service: submit/run/cancel over a shared fleet.

A :class:`JobManager` admits N independent pipelines — each a full
:class:`~repro.core.middleware.PreDatA` deployment with its own
operators, compute processes and steps — concurrently onto one shared
staging fleet.  Sharing is governed, not accidental:

- every tenant's buffer-pool and credit budgets are weighted carves of
  the fleet's physical budgets (:mod:`repro.jobs.share`), with
  work-conserving borrow of idle carve;
- a :class:`MultiTenantChecker` keeps independent conservation ledgers
  per tenant, so isolation is verified, not assumed;
- under sustained pressure an optional governor walks the preemption
  ladder (:class:`~repro.jobs.config.PreemptionConfig`) over the lowest
  priority tier: degrade its writes to the synchronous path first, then
  close its admission gate outright, with hysteretic resume.

Workloads are the seeded generators of :mod:`repro.check.workloads`,
so a tenant's result fingerprint under contention can be compared
byte-for-byte against its solo run (:mod:`repro.jobs.isolation`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.adios.io import SyncMPIIO
from repro.check.fingerprint import result_fingerprint
from repro.check.tenancy import MultiTenantChecker
from repro.check.workloads import (
    FIELD_GROUP,
    FIELD_KINDS,
    IO_INTERVAL,
    LOCAL_N,
    PARTICLE_GROUP,
    SCALE,
    field_step,
    make_operators,
    particle_step,
)
from repro.core import PreDatA
from repro.jobs.config import JobSpec, TenancyConfig
from repro.jobs.share import StagingFleet, TenantFlowControl
from repro.machine import TESTING_TINY, Machine
from repro.mpi import World
from repro.sim import Engine

__all__ = ["AdmissionGate", "JobHandle", "JobManager", "JobResult", "JobsReport"]

#: particle rows per rank of a tenant's workload: smaller than
#: :data:`repro.check.workloads.ROWS` (the field slab edge, volume scale
#: and dump interval are that module's)
TENANT_ROWS = 24
#: staging processes per fleet node (the paper's layout)
PROCS_PER_STAGING_NODE = 2


class AdmissionGate:
    """A pausable barrier in front of one tenant's write path.

    While closed, every ``write_step`` of the gated transport holds
    here — the top rung of the preemption ladder.  Reopening releases
    all holders at once (deterministically, via one shared event).
    """

    def __init__(self, env: Engine):
        self.env = env
        self._open = True
        self._ev = None
        self.holds = 0
        self.closures = 0

    @property
    def is_open(self) -> bool:
        return self._open

    def close(self) -> None:
        """Stop admitting writes; subsequent ``wait`` calls hold."""
        if self._open:
            self._open = False
            self.closures += 1

    def open(self) -> None:
        """Reopen the gate, releasing every held writer at once."""
        if not self._open:
            self._open = True
            ev = self._ev
            if ev is not None and not ev.triggered:
                ev.succeed()

    def wait(self, rank: int) -> Generator:
        """Process body: return immediately when open, else hold."""
        while not self._open:
            self.holds += 1
            if self._ev is None or self._ev.triggered:
                self._ev = self.env.event()
            yield self._ev


class JobHandle:
    """Live state of one submitted job."""

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.status = "pending"  # pending -> running -> done | cancelled
        self.predata: Optional[PreDatA] = None
        self.gate: Optional[AdmissionGate] = None
        self.cancelled = False
        #: per compute rank, application-visible write seconds
        self.visible: dict[int, float] = {}
        self.bytes_written = 0.0
        self.steps_written = 0  # rank-steps actually dumped
        self.steps_skipped = 0  # rank-steps skipped after cancel
        self.finished_at: Optional[float] = None
        self.degrade_actions = 0
        self.pause_actions = 0
        #: the governor intervened: results legally differ from solo
        self.perturbed_by_governor = False

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    def cancel(self) -> None:
        """Stop dumping further steps (already-written steps finish).

        Remaining steps turn into skip notices so every staging rank's
        step rounds stay matched and all ledgers still drain to zero.
        """
        self.cancelled = True

    def fingerprint(self) -> str:
        """This tenant's physics-level result fingerprint."""
        return result_fingerprint(self.predata)


@dataclass
class JobResult:
    """Immutable summary of one finished job."""

    spec: JobSpec
    fingerprint: str
    finished_at: float
    bytes_written: float
    steps_written: int
    steps_skipped: int
    cancelled: bool
    degraded_steps: int
    perturbed: bool
    visible: dict[int, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Logical bytes landed per simulated second of this job's run."""
        return self.bytes_written / self.finished_at if self.finished_at else 0.0


@dataclass
class JobsReport:
    """Outcome of one :meth:`JobManager.run`."""

    results: dict[str, JobResult]
    violations: list[str]
    sim_seconds: float
    checker: MultiTenantChecker = field(repr=False)

    @property
    def conserved(self) -> bool:
        return not self.violations

    def fingerprints(self) -> dict[str, str]:
        """Tenant -> physics-level result fingerprint."""
        return {t: r.fingerprint for t, r in self.results.items()}

    def summary(self) -> str:
        """One-line outcome: jobs, rank-steps, sim time, violations."""
        done = sum(1 for r in self.results.values() if not r.cancelled)
        return (
            f"{len(self.results)} job(s), {done} completed, "
            f"{sum(r.steps_written for r in self.results.values())} rank-steps, "
            f"{self.sim_seconds:.3g} simulated s, "
            f"{len(self.violations)} ledger violation(s)"
        )


class JobManager:
    """Admit, schedule and verify N concurrent tenant pipelines."""

    def __init__(
        self,
        config: Optional[TenancyConfig] = None,
        *,
        tie_breaker=None,
        schedule_trace=None,
        obs=None,
    ):
        self.config = config or TenancyConfig()
        self.env = Engine(tie_breaker=tie_breaker)
        if schedule_trace is not None:
            self.env.schedule_trace = schedule_trace
        self.obs = obs
        if obs is not None:
            obs.bind(self.env, label="jobs")
        self.checker: Optional[MultiTenantChecker] = None
        self.machine: Optional[Machine] = None
        self.fleet: Optional[StagingFleet] = None
        self.jobs: dict[str, JobHandle] = {}
        self._order: list[str] = []
        self._timed_cancels: list[tuple[str, float]] = []
        self._started = False
        self._active = 0

    # -- submission ----------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobHandle:
        """Register one job; building happens at :meth:`start`."""
        if self._started:
            raise RuntimeError("cannot submit after start()")
        if spec.tenant in self.jobs:
            raise ValueError(f"tenant {spec.tenant!r} already submitted")
        handle = JobHandle(spec)
        self.jobs[spec.tenant] = handle
        self._order.append(spec.tenant)
        return handle

    def cancel(self, tenant: str) -> None:
        """Cancel *tenant*'s remaining steps (idempotent)."""
        self.jobs[tenant].cancel()

    def cancel_at(self, tenant: str, when: float) -> None:
        """Schedule a deterministic cancel at simulated time *when*."""
        if tenant not in self.jobs:
            raise KeyError(f"unknown tenant {tenant!r}")
        self._timed_cancels.append((tenant, float(when)))

    # -- build + launch --------------------------------------------------------
    def start(self) -> None:
        """Build the shared fleet and launch every submitted pipeline."""
        if self._started:
            raise RuntimeError("start() called twice")
        if not self._order:
            raise RuntimeError("no jobs submitted")
        self._started = True
        env = self.env
        cfg = self.config
        specs = [self.jobs[t].spec for t in self._order]
        total_procs = sum(s.nprocs for s in specs)
        self.machine = Machine(
            env, total_procs, cfg.nstaging_nodes, spec=TESTING_TINY
        )
        self.checker = MultiTenantChecker(self._order).bind(env)
        staging_rank_nodes = [
            node_id
            for node_id in self.machine.staging_node_ids
            for _ in range(PROCS_PER_STAGING_NODE)
        ]
        self.fleet = StagingFleet(
            env,
            self.machine,
            cfg.flow,
            staging_rank_nodes=staging_rank_nodes,
            weights={s.tenant: s.weight for s in specs},
        )
        offset = 0
        for tenant in self._order:
            handle = self.jobs[tenant]
            self._launch(handle, offset)
            offset += handle.spec.nprocs
        if cfg.preemption is not None:
            env.process(self._governor(), name="jobs-governor")
        for tenant, when in self._timed_cancels:
            env.process(
                self._cancel_timer(tenant, when), name=f"cancel[{tenant}]"
            )

    def _launch(self, handle: JobHandle, offset: int) -> None:
        env, cfg, spec = self.env, self.config, handle.spec
        operators = make_operators(spec.kind)
        group = FIELD_GROUP if spec.kind in FIELD_KINDS else PARTICLE_GROUP
        flow = TenantFlowControl(
            env,
            self.machine,
            cfg.flow,
            staging_rank_nodes=self.fleet.staging_rank_nodes,
            tenant=spec.tenant,
            fleet=self.fleet,
        )
        # preemption needs a synchronous landing path for degraded writes
        fallback = (
            SyncMPIIO(self.machine.filesystem) if cfg.preemption is not None else None
        )
        handle.predata = PreDatA(
            env,
            self.machine,
            group,
            operators,
            ncompute_procs=spec.nprocs,
            nsteps=spec.nsteps,
            procs_per_staging_node=PROCS_PER_STAGING_NODE,
            volume_scale=SCALE,
            flow=flow,
            fallback_io=fallback,
            tenant=spec.tenant,
        )
        handle.predata.scheduler.labels = {"tenant": spec.tenant}
        if cfg.preemption is not None:
            handle.gate = AdmissionGate(env)
            handle.predata.transport.admission_gate = handle.gate
        app_world = World(
            env,
            self.machine.network,
            list(range(offset, offset + spec.nprocs)),
            name=f"app:{spec.tenant}",
            node_lookup=self.machine.node,
            wire_scale=SCALE,
        )
        handle.predata.start()
        app_world.spawn(functools.partial(self._app_main, handle))
        env.process(self._watch(handle), name=f"watch[{spec.tenant}]")
        handle.status = "running"
        self._active += 1

    # -- per-job processes -----------------------------------------------------
    @staticmethod
    def _make_step(spec: JobSpec, rank: int, s: int):
        if spec.kind in FIELD_KINDS:
            return field_step(
                rank, spec.nprocs, LOCAL_N, step=s, scale=SCALE, seed=spec.seed
            )
        return particle_step(
            rank, spec.nprocs, TENANT_ROWS, step=s, scale=SCALE, seed=spec.seed
        )

    def _app_main(self, handle: JobHandle, comm) -> Generator:
        """One compute rank of one tenant's application."""
        spec = handle.spec
        total = 0.0
        for s in range(spec.nsteps):
            if handle.cancelled:
                # keep every staging rank's step rounds matched
                yield from handle.predata.client.skip_step(comm, s)
                handle.steps_skipped += 1
                continue
            step = self._make_step(spec, comm.rank, s)
            nbytes = step.nbytes_logical
            t = yield from handle.predata.transport.write_step(comm, step)
            total += t
            handle.bytes_written += nbytes
            handle.steps_written += 1
            yield from comm.sleep(IO_INTERVAL)
        handle.visible[comm.rank] = total

    def _watch(self, handle: JobHandle) -> Generator:
        """Stamp completion when the job's staging world drains."""
        yield from handle.predata.service.drain()
        handle.finished_at = self.env.now
        handle.status = "cancelled" if handle.cancelled else "done"
        self._active -= 1

    def _cancel_timer(self, tenant: str, when: float) -> Generator:
        yield self.env.timeout(when)
        self.cancel(tenant)

    # -- preemption governor -----------------------------------------------------
    def _victims(self, exclude) -> list[JobHandle]:
        """Live jobs, lowest priority tier first (ties by tenant)."""
        live = [
            h
            for h in self.jobs.values()
            if h.status == "running" and h.finished_at is None and h not in exclude
        ]
        live.sort(key=lambda h: (h.spec.priority, h.tenant))
        return live

    def _degrade(self, handle: JobHandle, degraded: list) -> None:
        handle.predata.client.enter_degraded_mode()
        degraded.append(handle)
        handle.degrade_actions += 1
        handle.perturbed_by_governor = True
        # a governed degrade legally changes this tenant's results
        self.checker.checker(handle.tenant).external_perturbation = True
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("jobs_degrades", tenant=handle.tenant)

    def _governor(self) -> Generator:
        """Poll fleet pressure; walk the ladder over the lowest tier."""
        cfg = self.config.preemption
        degraded: list[JobHandle] = []
        paused: list[JobHandle] = []
        while self._active > 0:
            severity = self.fleet.severity()
            if severity >= cfg.pause_severity:
                victims = self._victims(exclude=set(paused))
                if victims:
                    victim = victims[0]
                    if victim not in degraded:
                        self._degrade(victim, degraded)
                    victim.gate.close()
                    paused.append(victim)
                    victim.pause_actions += 1
                    if self.env.obs is not None:
                        self.env.obs.metrics.inc("jobs_pauses", tenant=victim.tenant)
            elif severity >= cfg.degrade_severity:
                victims = self._victims(exclude=set(degraded))
                if victims:
                    self._degrade(victims[0], degraded)
            elif severity <= cfg.resume_severity:
                # hysteretic recovery, most recent victim first
                while paused:
                    paused.pop().gate.open()
                while degraded:
                    degraded.pop().predata.client.exit_degraded_mode()
            yield self.env.timeout(cfg.poll_interval)
        # drain cleanly: never leave a tenant wedged behind a closed gate
        while paused:
            paused.pop().gate.open()

    # -- run to completion -------------------------------------------------------
    def run(self) -> JobsReport:
        """Start (if needed), run the engine dry, and report."""
        if not self._started:
            self.start()
        self.env.run()
        results: dict[str, JobResult] = {}
        for tenant in self._order:
            h = self.jobs[tenant]
            results[tenant] = JobResult(
                spec=h.spec,
                fingerprint=h.fingerprint(),
                finished_at=(
                    h.finished_at if h.finished_at is not None else self.env.now
                ),
                bytes_written=h.bytes_written,
                steps_written=h.steps_written,
                steps_skipped=h.steps_skipped,
                cancelled=h.cancelled,
                degraded_steps=h.predata.transport.degraded_steps,
                perturbed=h.perturbed_by_governor,
                visible=dict(h.visible),
            )
        violations = self.checker.violations(
            {t: self.jobs[t].predata for t in self._order}
        )
        return JobsReport(
            results=results,
            violations=violations,
            sim_seconds=self.env.now,
            checker=self.checker,
        )
