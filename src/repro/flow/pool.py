"""Per-staging-node buffer pool: blocking acquire, watermarks, spill.

The :class:`BufferPool` is the hard memory bound of the flow-control
subsystem.  Every packed chunk a staging process fetches must first
acquire pool bytes; acquires queue FIFO in simulated time when the
pool is full, and releases (after Map) grant the queue head.  Crossing
the high watermark starts a spill worker that writes *cold* chunks
(unpinned — not currently being fetched or mapped) to the parallel
file system, newest-first: consumption is FIFO, so the chunk needed
last is the youngest.  Spilled chunks are re-fetched on demand by
:meth:`BufferPool.ensure_resident`, whose re-acquire jumps the waiter
queue so the consumer side can always make progress.

Spill traffic goes through :class:`~repro.machine.filesystem
.ParallelFileSystem` and therefore shares (and suffers) the machine's
file-system bandwidth like any other I/O.

A single chunk larger than the pool is granted alone (the pool runs
transiently over capacity rather than deadlocking); a chunk larger
than the *node* memory raises :class:`~repro.machine.node.MemoryError_`
— no amount of flow control can stage it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Optional

from repro.flow.config import HIGH_WATERMARK, LOW_WATERMARK, FlowConfig
from repro.machine.filesystem import ParallelFileSystem
from repro.machine.node import MemoryError_, Node
from repro.sim.engine import Engine, Event

__all__ = ["ChunkTicket", "BufferPool"]


class ChunkTicket:
    """One chunk's claim on pool bytes.

    ``state`` is ``"resident"`` (bytes held in node memory),
    ``"spilling"`` (being written out; bytes still held) or
    ``"spilled"`` (on the file system; no bytes held).  ``pinned``
    tickets are in active use (being fetched into or mapped) and are
    never spill victims.
    """

    __slots__ = ("key", "nbytes", "state", "pinned", "discarded")

    def __init__(self, key, nbytes: float):
        self.key = key
        self.nbytes = float(nbytes)
        self.state = "resident"
        self.pinned = True
        self.discarded = False

    def __repr__(self) -> str:
        flags = ("pinned" if self.pinned else "cold") + (
            ",discarded" if self.discarded else ""
        )
        return f"ChunkTicket({self.key}, {self.nbytes:.3g}B, {self.state}, {flags})"


class BufferPool:
    """Governed chunk memory of one staging node."""

    def __init__(
        self,
        env: Engine,
        node: Node,
        filesystem: Optional[ParallelFileSystem],
        config: FlowConfig,
    ):
        self.env = env
        self.node = node
        self.filesystem = filesystem
        memory = node.config.memory_bytes
        pool_bytes = config.pool_bytes if config.pool_bytes is not None else memory
        self.capacity = float(min(pool_bytes, memory))
        self.high = HIGH_WATERMARK * self.capacity
        self.low = LOW_WATERMARK * self.capacity
        self._used = 0.0
        self._above_high = False
        #: FIFO byte waiters; urgent (unspill) entries enter at the front
        self._waiters: Deque[list] = deque()
        #: live tickets in insertion (fetch) order.  Keyed by ticket
        #: identity, not chunk key: a restarted step re-fetches the
        #: same chunks while an aborted ticket may still be mid-spill.
        self._tickets: dict[ChunkTicket, None] = {}
        self._spilling = False
        self._change_ev: Optional[Event] = None
        # -- always-on stats (benchmarks read these without obs) ------
        self.peak_bytes = 0.0
        self.spills = 0
        self.unspills = 0
        self.spill_bytes = 0.0
        self.unspill_bytes = 0.0
        self.wait_seconds = 0.0
        self.waits = 0

    # -- introspection ------------------------------------------------------
    @property
    def used(self) -> float:
        return self._used

    @property
    def queued(self) -> int:
        return len(self._waiters)

    # -- change broadcast ----------------------------------------------------
    def wait_change(self) -> Event:
        """Event firing at the next occupancy/state transition."""
        if self._change_ev is None or self._change_ev.triggered:
            self._change_ev = self.env.event()
        return self._change_ev

    def _changed(self) -> None:
        ev = self._change_ev
        if ev is not None and not ev.triggered:
            ev.succeed()

    # -- accounting ----------------------------------------------------------
    def _charge(self, nbytes: float) -> None:
        self._used += nbytes
        self.peak_bytes = max(self.peak_bytes, self._used)
        if self._used > self.high:
            self._above_high = True
        obs = self.env.obs
        if obs is not None:
            obs.metrics.gauge_max("flow_pool_peak_bytes", self._used, node=self.node.id)

    def _refund(self, nbytes: float) -> None:
        self._used = max(0.0, self._used - nbytes)
        if self._used <= self.low:
            self._above_high = False
        self._pump()
        self._changed()

    def _fits(self, need: float) -> bool:
        """May *need* bytes be charged right now?

        An empty pool always grants (a single oversized chunk must not
        deadlock).
        """
        return self._used + need <= self.capacity or self._used == 0.0

    def _pump(self) -> None:
        """Grant queued byte waiters FIFO while they fit."""
        while self._waiters:
            ev, need, _t_enq = self._waiters[0]
            if not self._fits(need):
                break  # head-of-line blocking preserves FIFO fairness
            self._waiters.popleft()
            self._charge(need)
            ev.succeed()

    # -- acquire / release ---------------------------------------------------
    def _request_bytes(self, nbytes: float, *, urgent: bool) -> tuple:
        ev = self.env.event()
        entry = [ev, nbytes, self.env.now]
        if urgent:
            self._waiters.appendleft(entry)
        else:
            self._waiters.append(entry)
        self._pump()
        if not ev.triggered:
            self._maybe_spill()
        return ev, entry

    def _cancel_request(self, ev: Event, entry: list, nbytes: float) -> None:
        try:
            self._waiters.remove(entry)
            return
        except ValueError:
            pass
        if ev.triggered:  # granted, but the waiter died before using it
            self._refund(nbytes)

    def _await_grant(self, nbytes: float, *, urgent: bool) -> Generator:
        """Process body: block until *nbytes* of pool memory is charged."""
        ev, entry = self._request_bytes(nbytes, urgent=urgent)
        t0 = self.env.now
        try:
            yield ev
        except BaseException:
            self._cancel_request(ev, entry, nbytes)
            raise
        waited = self.env.now - t0
        if waited > 0:
            self.wait_seconds += waited
            self.waits += 1
            obs = self.env.obs
            if obs is not None:
                obs.metrics.observe("flow_pool_wait_seconds", waited, node=self.node.id)
                obs.span(
                    "pool_wait", "flow", t0, tid=f"node{self.node.id}",
                    nbytes=nbytes,
                )
        # Mirror the charge in the node's own ledger: the pool is the
        # node's only allocator under flow control, so this raises
        # MemoryError_ only if the two ledgers ever diverge.
        try:
            self.node.allocate(nbytes)
        except MemoryError_:
            self._refund(nbytes)
            raise

    def acquire(self, key, nbytes: float) -> Generator:
        """Process body: claim *nbytes* for chunk *key*; returns a ticket.

        The returned ticket is pinned (being filled); call
        :meth:`unpin` once the chunk is parked in the staging queue.
        """
        if nbytes > self.node.config.memory_bytes:
            raise MemoryError_(
                f"node {self.node.id}: chunk of {nbytes:.3e} B can never fit "
                f"in {self.node.config.memory_bytes:.3e} B of node memory"
            )
        yield from self._await_grant(nbytes, urgent=False)
        ticket = ChunkTicket(key, nbytes)
        self._tickets[ticket] = None
        return ticket

    def unpin(self, ticket: ChunkTicket) -> None:
        """Mark *ticket* cold (parked, eligible for spilling)."""
        ticket.pinned = False
        self._maybe_spill()

    def ensure_resident(self, ticket: ChunkTicket) -> Generator:
        """Process body: pin *ticket*, unspilling it first if needed.

        The unspill re-acquire enters the waiter queue at the *front*:
        the consumer (Map) draining the pool must never queue behind
        producers (fetches) or the pipeline could wedge.
        """
        if ticket.discarded:
            raise RuntimeError(f"chunk {ticket.key!r} was discarded")
        while ticket.state == "spilling":
            yield self.wait_change()
        ticket.pinned = True
        if ticket.state != "spilled":
            return
        yield from self._await_grant(ticket.nbytes, urgent=True)
        t0 = self.env.now
        if self.filesystem is not None:
            try:
                yield from self.filesystem.read(
                    ticket.nbytes, label="flow-spill"
                )
            except BaseException:
                # interrupted mid-unspill: the chunk is still on disk,
                # so give the re-acquired bytes back
                self.node.free(ticket.nbytes)
                self._refund(ticket.nbytes)
                raise
        ticket.state = "resident"
        self.unspills += 1
        self.unspill_bytes += ticket.nbytes
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("flow_unspills", node=self.node.id)
            obs.metrics.inc("flow_unspill_bytes", ticket.nbytes, node=self.node.id)
            obs.span(
                "unspill", "flow", t0, tid=f"node{self.node.id}",
                nbytes=ticket.nbytes,
            )
        self._changed()

    def release(self, ticket: ChunkTicket) -> None:
        """Return *ticket*'s bytes to the pool (chunk fully consumed)."""
        if ticket not in self._tickets:
            return  # already released/discarded (idempotent)
        if ticket.state == "spilling":
            ticket.discarded = True  # spill worker finishes the teardown
            return
        del self._tickets[ticket]
        if ticket.state == "resident":
            self.node.free(ticket.nbytes)
            self._refund(ticket.nbytes)
        # a spilled ticket holds no memory; dropping the record suffices

    def discard(self, ticket: ChunkTicket) -> None:
        """Abort-path release (step torn down mid-flight)."""
        ticket.discarded = True
        self.release(ticket)

    # -- spilling ------------------------------------------------------------
    def _spill_victim(self) -> Optional[ChunkTicket]:
        """Newest cold resident chunk (needed last under FIFO mapping)."""
        for ticket in reversed(list(self._tickets)):
            if ticket.state == "resident" and not ticket.pinned:
                return ticket
        return None

    def _should_spill(self) -> bool:
        if self._waiters:
            return True
        return self._above_high and self._used > self.low

    def _maybe_spill(self) -> None:
        if (
            self._spilling
            or self.filesystem is None
            or not self._should_spill()
            or self._spill_victim() is None
        ):
            return
        self._spilling = True
        self.env.process(self._spill_worker(), name=f"spill[node{self.node.id}]")

    def _spill_worker(self) -> Generator:
        try:
            while self._should_spill():
                ticket = self._spill_victim()
                if ticket is None:
                    return
                ticket.state = "spilling"
                t0 = self.env.now
                yield from self.filesystem.write(
                    ticket.nbytes, label="flow-spill"
                )
                self.node.free(ticket.nbytes)
                self.spills += 1
                self.spill_bytes += ticket.nbytes
                obs = self.env.obs
                if obs is not None:
                    obs.metrics.inc("flow_spills", node=self.node.id)
                    obs.metrics.inc("flow_spill_bytes", ticket.nbytes, node=self.node.id)
                    obs.span(
                        "spill", "flow", t0, tid=f"node{self.node.id}",
                        nbytes=ticket.nbytes,
                    )
                ticket.state = "spilled"
                if ticket.discarded:
                    self._tickets.pop(ticket, None)
                self._refund(ticket.nbytes)
        finally:
            self._spilling = False
