"""Scheduled asynchronous data movement (§IV.A).

Asynchronous RDMA fetches from compute nodes must not overlap the
simulation's collective-communication phases, or the shared NIC slows
the collectives and the main loop inflates (the paper bounds this
interference to <6 % worst case *with* scheduling; §V.B.2).

The :class:`MovementScheduler` tracks, per compute node, whether the
application is inside a communication phase (applications or app
skeletons bracket their collective bursts with
:meth:`enter_comm_phase` / :meth:`exit_comm_phase`; the app models in
:mod:`repro.apps` do this automatically).  Staging-side fetches call
:meth:`wait_clear` before touching a node; with ``enabled=False`` the
scheduler degrades to fetch-immediately, which is the ablation
configuration for the interference experiment.
"""

from __future__ import annotations

import heapq
from typing import Generator, Optional

from repro.sim.engine import Engine, Event, Process

__all__ = ["MovementScheduler"]

#: upper bound in seconds a fetch may be deferred; prevents starvation
#: when an application communicates continuously (Pixie3D's
#: reduce/bcast-heavy inner loop is exactly such a case, §V.C)
MAX_DEFER = 30.0


class MovementScheduler:
    """Phase-aware admission control for staging fetches.

    Parameters
    ----------
    env: simulation engine.
    enabled:
        When False, :meth:`wait_clear` returns immediately
        (unscheduled movement — the ablation baseline).

    Deferred fetches park on a per-node waiter heap keyed
    ``(deadline, seq)``; one timer process per node enforces
    ``max_defer`` (:data:`MAX_DEFER`) for every waiter on that node, and
    :meth:`exit_comm_phase` releases the node's waiters directly —
    O(changed node's waiters) work with no per-waiter
    ``Timeout``/``AnyOf`` allocation per loop turn.
    """

    def __init__(self, env: Engine, *, enabled: bool = True):
        self.env = env
        self.enabled = enabled
        self.max_defer = MAX_DEFER
        #: per-node comm-phase nesting depth
        self._depth: dict[int, int] = {}
        #: per-node waiter heaps [(deadline, seq, event)]
        self._waiters: dict[int, list[tuple[float, int, Event]]] = {}
        self._timers: dict[int, Process] = {}
        self._wseq = 0
        self.deferred_fetches = 0
        self.total_defer_seconds = 0.0
        #: optional :class:`repro.flow.pressure.PressureController`;
        #: when set, fetches are additionally admitted against the
        #: destination node's buffer-pool occupancy.
        self.pressure = None

    # -- application side ---------------------------------------------------
    def enter_comm_phase(self, node_id: int) -> None:
        """Mark *node_id* as inside a communication phase."""
        self._depth[node_id] = self._depth.get(node_id, 0) + 1

    def exit_comm_phase(self, node_id: int) -> None:
        """Mark the end of a communication phase on *node_id*."""
        depth = self._depth.get(node_id, 0)
        if depth <= 0:
            raise RuntimeError(f"exit_comm_phase without enter on node {node_id}")
        depth -= 1
        self._depth[node_id] = depth
        if depth == 0:
            waiters = self._waiters.get(node_id)
            if waiters:
                # release in (deadline, seq) order — deterministic
                while waiters:
                    _t, _seq, wev = heapq.heappop(waiters)
                    if not wev.triggered:
                        wev.succeed("clear")

    def in_comm_phase(self, node_id: int) -> bool:
        """True while *node_id* is inside a communication phase."""
        return self._depth.get(node_id, 0) > 0

    # -- staging side ---------------------------------------------------------
    def wait_clear(
        self,
        node_id: int,
        *,
        dst_node: Optional[int] = None,
        nbytes: float = 0.0,
    ) -> Generator:
        """Process body: wait until *node_id* leaves its comm phase.

        ``dst_node``/``nbytes`` describe the fetch destination; when a
        :class:`~repro.flow.pressure.PressureController` is attached
        the fetch is additionally admitted (held or rate-shaped)
        against that node's buffer-pool occupancy.  Returns the total
        seconds the movement was delayed (0.0 when it proceeds
        immediately).
        """
        deferred = 0.0
        forced = False
        if self.enabled and self.in_comm_phase(node_id):
            start = self.env.now
            self.deferred_fetches += 1
            forced = yield from self._wait_batched(node_id, start + self.max_defer)
            deferred = self.env.now - start
            self.total_defer_seconds += deferred
            obs = self.env.obs
            if obs is not None and deferred > 0:
                obs.span(
                    "scheduler_defer", "scheduler", start,
                    tid=f"node{node_id}", node=node_id,
                )
                obs.metrics.inc("scheduler_defers", node=node_id)
                obs.metrics.inc("scheduler_defer_seconds", deferred, node=node_id)
        in_phase = self.enabled and self.in_comm_phase(node_id)
        if self.pressure is not None and dst_node is not None:
            deferred += yield from self.pressure.admit(dst_node, nbytes)
        if self.env.check is not None:
            self.env.check.on_movement_admitted(
                node_id, in_phase=in_phase, forced=forced
            )
        return deferred

    # -- waiter machinery -------------------------------------------------
    def _wait_batched(self, node_id: int, deadline_t: float) -> Generator:
        """Park on *node_id*'s waiter heap until clear or *deadline_t*.

        Returns True when the deadline forced the movement through.
        Re-entry at the release timestamp (the node re-entered its comm
        phase in the same instant) keeps the waiter's original deadline.
        """
        while self.in_comm_phase(node_id):
            ev = self.env.event()
            self._wseq += 1
            heapq.heappush(
                self._waiters.setdefault(node_id, []),
                (deadline_t, self._wseq, ev),
            )
            self._ensure_timer(node_id)
            value = yield ev
            if value == "forced":
                return True
        return False

    def _ensure_timer(self, node_id: int) -> None:
        proc = self._timers.get(node_id)
        if proc is None or proc.is_alive is False:
            self._timers[node_id] = self.env.process(
                self._timer_body(node_id), name=f"sched-timer-{node_id}"
            )

    def _timer_body(self, node_id: int) -> Generator:
        """One deadline clock for all of *node_id*'s parked waiters."""
        waiters = self._waiters.setdefault(node_id, [])
        while waiters:
            t = waiters[0][0]
            if t > self.env.now:
                yield self.env.timeout(t - self.env.now)
            while waiters and waiters[0][0] <= self.env.now:
                _t, _seq, ev = heapq.heappop(waiters)
                if not ev.triggered:
                    ev.succeed("forced")
