"""Compute-node side of the PreDatA middleware (§IV.B stages 1a–1c).

When the application triggers I/O, the :class:`StagingClient`:

1. runs each operator's ``Partial_calculate()`` on the local output
   (stage 1a — deterministic-delay local ops);
2. packs the output into a contiguous FFS buffer — the *packed partial
   data chunk* (stage 1b) — holding node memory until the staging area
   has fetched it;
3. routes a small *data-fetch request*, with the partial results
   attached, to the staging process chosen by ``Route()`` (stage 1c);
4. returns control to the simulation.

The visible write latency is therefore pack time + request latency,
plus any throttling when the bounded per-node output buffer is still
occupied by previous steps (back-pressure replaces unbounded memory).

The staging area later pulls the buffer with a scheduled asynchronous
RDMA get served by :meth:`StagingClient.serve_fetch`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.adios.group import OutputStep
from repro.adios.io import IOMethod
from repro.core.operator import PreDatAOperator, charge
from repro.core.scheduler import MovementScheduler
from repro.faults.errors import FetchDropped, NoLiveStagers
from repro.machine.machine import Machine
from repro.mpi.communicator import Communicator
from repro.sim.engine import Engine, Event
from repro.sim.resources import Mailbox

__all__ = ["FetchRequest", "StagingClient", "StagingTransport", "default_route"]

#: packed steps a compute process may hold before its next write blocks
#: (double buffering: one step in flight while the next is packed)
MAX_BUFFERED_STEPS = 2


def default_route(compute_rank: int, ncompute: int, nstaging: int) -> int:
    """Block mapping of compute ranks onto staging processes."""
    return compute_rank * nstaging // ncompute


def _garbled(payload) -> bytes:
    """A corrupted copy of *payload* (fault injection's wire garbage)."""
    bad = bytearray(payload)
    for i in range(min(32, len(bad))):
        bad[i] ^= 0xA5
    return bytes(bad)


@dataclass
class FetchRequest:
    """The small message sent from a compute process to its staging
    process when an I/O dump starts (stage 1c)."""

    compute_rank: int
    compute_node: int
    step: int
    logical_nbytes: float
    partials: dict[str, Any]  # operator name -> partial result
    t_dump_start: float


@dataclass
class _BufferRecord:
    #: read-only view of the packed chunk; it owns the bytes, so they
    #: live exactly as long as this record, the stager that fetched the
    #: view or an array decoded from it does
    payload: memoryview
    logical_nbytes: float
    freed: Event
    node_id: int
    #: pack-time sha256 of the payload, kept only while a fault hook is
    #: armed (corrupt-chunk detection); None otherwise — zero overhead
    #: and byte-identical behaviour for fault-free runs
    digest: Optional[bytes] = None


class StagingClient:
    """Shared compute-node runtime state for one application."""

    def __init__(
        self,
        env: Engine,
        machine: Machine,
        operators: list[PreDatAOperator],
        *,
        ncompute: int,
        nstaging: int,
        staging_nodes: list[int],
        scheduler: Optional[MovementScheduler] = None,
        route: Optional[Callable[[int, int, int], int]] = None,
        fetch_rate_cap: Optional[float] = None,
        resilient: bool = False,
    ):
        """``fetch_rate_cap`` (bytes/s per staging process) paces the
        asynchronous RDMA gets: scheduled movement deliberately draws
        data at a bounded rate to bound interference with the
        application's communication ([2]'s server-directed pacing).
        None disables pacing (fetch at full NIC speed).

        ``resilient=True`` switches the buffer lifecycle to the
        recovery protocol: fetches no longer consume the compute-side
        buffer — it is released only by :meth:`commit` once the whole
        staging world has finished the step — so a crashed stager's
        step can be re-fetched by survivors with zero data loss.

        Stage 1b is one exact-size allocation and one copy of each
        array: :func:`repro.ffs.encode` hands every dump downstream as a
        read-only memoryview that owns its bytes.  The client keeps no
        scratch state — the chunk is freed when its last reader lets go
        (the :class:`_BufferRecord`, the stager that fetched it, any
        array decoded from it), so an operator may keep a decoded view
        for as long as it likes."""
        if nstaging < 1:
            raise ValueError("need at least one staging process")
        self.env = env
        self.machine = machine
        self.operators = list(operators)
        self.ncompute = ncompute
        self.nstaging = nstaging
        self.staging_nodes = list(staging_nodes)
        self.scheduler = scheduler or MovementScheduler(env)
        self._route = route or default_route
        if fetch_rate_cap is not None and fetch_rate_cap <= 0:
            raise ValueError("fetch_rate_cap must be positive")
        self.fetch_rate_cap = fetch_rate_cap
        #: request mailbox per staging rank (cross-world channel)
        self._request_boxes: dict[int, Mailbox] = {}
        #: pending packed chunks keyed by (compute_rank, step)
        self._buffers: dict[tuple[int, int], _BufferRecord] = {}
        #: completion order per compute rank for back-pressure
        self._pending: dict[int, list[Event]] = {}
        # -- resilience state ------------------------------------------
        self.resilient = resilient
        #: fault-injection hook: (compute_rank, step, attempt) ->
        #: None | ("drop"|"slow", delay)
        self.fault_hook: Optional[Callable[[int, int, int], Any]] = None
        #: staging ranks declared dead by the failure detector
        self._failed_stagers: set[int] = set()
        #: uncommitted dump notices keyed (compute_rank, step); value is
        #: the FetchRequest, or None for a skip notice
        self._requests_log: dict[tuple[int, int], Optional[FetchRequest]] = {}
        #: graceful degradation flag: transports fall back to sync writes
        self.degraded = False
        #: controller callback replaying a buffer through the fallback
        #: when a dump lands after the last stager died
        self._orphan_sink: Optional[Callable[[int, int], Any]] = None
        #: optional :class:`repro.flow.FlowControl` — credit-based
        #: admission + staging buffer pools (None = no flow control)
        self.flow = None

    # -- routing ------------------------------------------------------------
    def route(self, compute_rank: int) -> int:
        """The validated staging rank serving *compute_rank*.

        With failures, dead targets are remapped deterministically onto
        the survivors (ring order), so every compute process — and the
        recovery controller re-delivering logged requests — agrees on
        the failover assignment without any negotiation.
        """
        target = self._route(compute_rank, self.ncompute, self.nstaging)
        if not 0 <= target < self.nstaging:
            raise ValueError(
                f"Route() returned {target} outside staging world of "
                f"{self.nstaging}"
            )
        if target in self._failed_stagers:
            survivors = self.alive_stagers
            if not survivors:
                raise NoLiveStagers("all staging ranks have failed")
            target = survivors[target % len(survivors)]
        return target

    # -- failure bookkeeping -------------------------------------------------
    @property
    def alive_stagers(self) -> list[int]:
        return [r for r in range(self.nstaging) if r not in self._failed_stagers]

    @property
    def has_live_stagers(self) -> bool:
        return len(self._failed_stagers) < self.nstaging

    def mark_stager_failed(self, staging_rank: int) -> None:
        """Record *staging_rank* dead; future routing avoids it."""
        self._failed_stagers.add(staging_rank)

    def enter_degraded_mode(self) -> None:
        """Switch transports to synchronous in-compute-node writes."""
        self.degraded = True

    def commit(self, compute_rank: int, step: int) -> None:
        """Release the compute-side buffer of a fully processed dump.

        Called by the staging service after the commit barrier (all
        survivors finished the step), or by the recovery controller for
        steps that completed globally before a crash.
        """
        self._requests_log.pop((compute_rank, step), None)
        if self.env.check is not None:
            self.env.check.on_committed((compute_rank, step))
        rec = self._buffers.pop((compute_rank, step), None)
        if rec is not None:
            self.machine.node(rec.node_id).free(rec.logical_nbytes)
            if not rec.freed.triggered:
                rec.freed.succeed()
        if self.flow is not None:
            # safety net: whatever path completed the step (including
            # zero-survivor replay), its credits must not leak
            self.flow.release_credits((compute_rank, step))

    def buffer_payload(self, compute_rank: int, step: int) -> Optional[memoryview]:
        """Packed chunk of an uncommitted dump (controller replay path)."""
        rec = self._buffers.get((compute_rank, step))
        return None if rec is None else rec.payload

    def compute_ranks_of(self, staging_rank: int) -> list[int]:
        """Compute ranks served by *staging_rank* under current routing."""
        return [
            r for r in range(self.ncompute) if self.route(r) == staging_rank
        ]

    def request_box(self, staging_rank: int) -> Mailbox:
        """The cross-world request mailbox of one staging rank."""
        box = self._request_boxes.get(staging_rank)
        if box is None:
            box = Mailbox(self.env)
            self._request_boxes[staging_rank] = box
        return box

    # -- stage 1: the write path ------------------------------------------------
    def write_step(self, comm: Communicator, step: OutputStep) -> Generator:
        """Process body: the compute-node side of one I/O dump.

        Returns the visible (blocking) seconds.
        """
        env = self.env
        obs = env.obs
        tid = f"compute{comm.rank}"
        start = env.now
        node = self.machine.node(comm.node_id)

        # Back-pressure: at most MAX_BUFFERED_STEPS outstanding buffers
        # per process.
        pending = self._pending.setdefault(comm.rank, [])
        pending[:] = [ev for ev in pending if not ev.triggered]
        while len(pending) >= MAX_BUFFERED_STEPS:
            yield pending[0]
            pending[:] = [ev for ev in pending if not ev.triggered]
        if obs is not None and env.now > start:
            obs.span("backpressure", "compute", start, tid=tid, step=step.step)

        # Stage 1a: Partial_calculate for each operator.
        partials: dict[str, Any] = {}
        t0 = env.now
        for op in self.operators:
            yield from charge(node, op.partial_flops(step), 1)
            result = op.partial_calculate(step)
            if result is not None:
                partials[op.name] = result
        if obs is not None:
            obs.span("partial_calculate", "compute", t0, tid=tid, step=step.step)

        # Stage 1b: pack into a contiguous FFS buffer (memcpy-bound).
        t_pack = env.now
        payload = step.pack()
        pack_time = 2.0 * node.memory_scan_time(step.nbytes_logical)
        if pack_time > 0:
            yield env.timeout(pack_time)
        if obs is not None:
            obs.span(
                "pack", "compute", t_pack, tid=tid, step=step.step,
                nbytes=step.nbytes_logical,
            )
        node.allocate(step.nbytes_logical)
        freed = env.event()
        self._buffers[(comm.rank, step.step)] = _BufferRecord(
            payload=payload,
            logical_nbytes=step.nbytes_logical,
            freed=freed,
            node_id=comm.node_id,
            digest=(
                hashlib.sha256(payload).digest()
                if self.fault_hook is not None
                else None
            ),
        )
        pending.append(freed)
        if env.check is not None:
            env.check.on_packed(
                (comm.rank, step.step), step.nbytes_logical, comm.node_id
            )

        # Stage 1c: data-fetch request to the routed staging process.
        request = FetchRequest(
            compute_rank=comm.rank,
            compute_node=comm.node_id,
            step=step.step,
            logical_nbytes=step.nbytes_logical,
            partials=partials,
            t_dump_start=start,
        )
        if self.resilient:
            self._requests_log[(comm.rank, step.step)] = request
        if self.has_live_stagers:
            t_req = env.now
            target = self.route(comm.rank)
            yield from self.machine.network.transfer(
                comm.node_id,
                self.staging_nodes[target % len(self.staging_nodes)],
                256.0,
            )
            if self.resilient:
                # the target may have died during the wire delay
                target = self.route(comm.rank)
            self.request_box(target).deliver(comm.rank, step.step, request)
            if obs is not None:
                obs.span(
                    "request", "compute", t_req, tid=tid,
                    step=step.step, target=target,
                )
        elif self._orphan_sink is not None:
            # Last stager died mid-write: hand the buffer straight to
            # the controller's fallback replay so the dump still lands.
            env.process(self._orphan_sink(comm.rank, step.step))

        return env.now - start

    def skip_step(self, comm: Communicator, step: int) -> Generator:
        """Process body: tell the staging area this rank dumps *step*
        elsewhere (e.g. the adaptive controller chose In-Compute-Node).

        The staging service still matches the step's request round but
        fetches nothing from this process.
        """
        if not self.has_live_stagers:
            return  # nobody left to notify, or ever to commit a logged notice
        if self.resilient:
            self._requests_log[(comm.rank, step)] = None
        target = self.route(comm.rank)
        yield from self.machine.network.transfer(
            comm.node_id, self.staging_nodes[target % len(self.staging_nodes)], 64.0
        )
        if self.resilient:
            target = self.route(comm.rank)
        self.request_box(target).deliver(comm.rank, step, None)

    # -- stage 3: RDMA service ----------------------------------------------------
    def serve_fetch(
        self, compute_rank: int, step: int, staging_node: int, *, attempt: int = 0
    ) -> Generator:
        """Process body (staging side): scheduled RDMA get of one chunk.

        Returns the packed payload bytes.  Without resilience the
        compute-node buffer is freed here; in resilient mode it stays
        until :meth:`commit`, so an interrupted/dropped fetch (and a
        whole-step restart after a stager crash) can re-pull the data.
        """
        key = (compute_rank, step)
        if self.resilient:
            rec = self._buffers.get(key)
        else:
            rec = self._buffers.pop(key, None)
        if rec is None:
            raise KeyError(f"no buffered chunk for rank {compute_rank} step {step}")
        fault = (
            self.fault_hook(compute_rank, step, attempt)
            if self.fault_hook is not None
            else None
        )
        yield from self.scheduler.wait_clear(
            rec.node_id, dst_node=staging_node, nbytes=rec.logical_nbytes
        )
        if fault is not None:
            mode, delay = fault
            if delay > 0:
                yield self.env.timeout(delay)
            if mode == "drop":
                raise FetchDropped(compute_rank, step, attempt)
            if mode == "withhold":
                # silent non-answer: the descriptor is posted but the
                # responder never completes it — only the puller's
                # per-attempt timeout (which interrupts this process)
                # can end the attempt
                yield self.env.event()
        wire = self.machine.network.transfer_event(
            rec.node_id, staging_node, rec.logical_nbytes, rdma=True
        )
        if self.fetch_rate_cap is not None:
            pace = self.env.timeout(rec.logical_nbytes / self.fetch_rate_cap)
            yield self.env.all_of([wire, pace])
        else:
            yield wire
        if not self.resilient:
            self.machine.node(rec.node_id).free(rec.logical_nbytes)
            rec.freed.succeed()
        if self.env.check is not None:
            self.env.check.on_fetched((compute_rank, step), rec.logical_nbytes)
        if fault is not None and fault[0] == "corrupt":
            return _garbled(rec.payload)
        return rec.payload

    def payload_ok(self, compute_rank: int, step: int, payload) -> bool:
        """Whether *payload* matches the chunk's pack-time checksum.

        True when no checksum was recorded (no fault hook armed at pack
        time, or the buffer already consumed) — verification only ever
        rejects provably garbled bytes.
        """
        rec = self._buffers.get((compute_rank, step))
        if rec is None or rec.digest is None:
            return True
        return hashlib.sha256(payload).digest() == rec.digest

    @property
    def outstanding_buffers(self) -> int:
        return len(self._buffers)


class StagingTransport(IOMethod):
    """ADIOS transport that routes output through the staging area.

    ``fallback`` (an :class:`IOMethod`, typically synchronous MPI-IO)
    takes over when the client has entered degraded mode: dumps are
    written synchronously from the compute nodes and surviving stagers
    (if any) receive a skip notice so their step rounds stay matched.
    """

    def __init__(self, client: StagingClient, *, fallback: Optional[IOMethod] = None):
        self.client = client
        self.fallback = fallback
        self.visible_write_seconds = 0.0
        self.degraded_steps = 0
        #: steps degraded to the fallback by credit-admission overload
        self.overflow_steps = 0

    def _degraded_write(self, comm: Communicator, step: OutputStep) -> Generator:
        """Process body: synchronous fallback write + staging skip notice."""
        yield from self.fallback.write_step(comm, step)
        if self.client.has_live_stagers:
            yield from self.client.skip_step(comm, step.step)
        self.degraded_steps += 1
        if comm.env.check is not None:
            comm.env.check.on_degraded((comm.rank, step.step), step.nbytes_logical)

    def write_step(self, comm: Communicator, step: OutputStep) -> Generator:
        if self.client.degraded and self.fallback is not None:
            start = comm.env.now
            yield from self._degraded_write(comm, step)
            obs = comm.env.obs
            if obs is not None:
                obs.metrics.inc("degraded_steps", rank=comm.rank)
                obs.instant(
                    "degraded_write", "recovery",
                    tid=f"compute{comm.rank}", step=step.step,
                )
            t = comm.env.now - start
            self.visible_write_seconds += t
            return t
        flow = self.client.flow
        if flow is not None and self.client.has_live_stagers:
            # Credit-based admission: hold the write until its routed
            # staging rank grants byte credits for the packed chunk.
            # Under a CoDel sojourn target (and with a fallback to
            # degrade to), an over-waiting write leaves the queue and
            # lands synchronously instead.
            start = comm.env.now
            target = self.client.route(comm.rank)
            granted = yield from flow.request_credits(
                target, (comm.rank, step.step), step.nbytes_logical,
                can_degrade=self.fallback is not None,
            )
            if not granted:
                yield from self._degraded_write(comm, step)
                self.overflow_steps += 1
                obs = comm.env.obs
                if obs is not None:
                    obs.metrics.inc("flow_overflow_steps", rank=comm.rank)
                    obs.instant(
                        "overflow_write", "flow",
                        tid=f"compute{comm.rank}", step=step.step,
                    )
                t = comm.env.now - start
                self.visible_write_seconds += t
                return t
            yield from self.client.write_step(comm, step)
            t = comm.env.now - start  # visible time includes the credit wait
            self.visible_write_seconds += t
            return t
        t = yield from self.client.write_step(comm, step)
        self.visible_write_seconds += t
        return t
