"""Credit-based admission control between compute clients and stagers.

Each staging rank owns a :class:`CreditBank` holding a byte budget.  A
compute-side write must be granted credits for its packed chunk before
the fetch request is even routed; the grant is released when the chunk
has been mapped (or at commit, idempotently).  When the budget is
exhausted, requests queue FIFO in simulated time.

One structural rule keeps the protocol deadlock-free: a compute rank
holding *no* outstanding grant is always admitted, even over budget.
The staging service gathers every request of a step before fetching
any of them, so admission may never hold back part of a step whose
other chunks are already admitted — credits therefore bound how far a
client runs *ahead* (buffered-step bytes), while the
:class:`~repro.flow.pool.BufferPool` remains the hard per-chunk bound.

With a ``codel_target`` configured, the queue is bounded CoDel-style:
the first over-target sojourn degrades that write to the synchronous
fallback path, and while the queue stays congested the allowance for
successive waiters shrinks as ``target / sqrt(n_rejections + 1)`` —
the standard CoDel control law — until a grant's sojourn comes back
under target.  Degrading (rather than dropping) preserves every dump.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Generator

from repro.flow.config import CODEL_INTERVAL, FlowConfig
from repro.sim.engine import Engine

__all__ = ["CreditBank"]


class CreditBank:
    """Byte-credit budget of one staging rank."""

    def __init__(self, env: Engine, rank: int, capacity: float, config: FlowConfig):
        if capacity <= 0:
            raise ValueError("credit capacity must be positive")
        self.env = env
        self.rank = rank
        self.capacity = float(capacity)
        self.config = config
        self._granted = 0.0
        #: outstanding grants keyed by (compute_rank, step)
        self._grants: dict = {}
        #: outstanding grant count per source (compute rank)
        self._source_out: dict = {}
        #: FIFO credit waiters: [event, key, nbytes, t_enqueue, source]
        self._waiters: Deque[list] = deque()
        self._reject_streak = 0
        # -- always-on stats ------------------------------------------
        self.grants = 0
        self.rejections = 0
        self.forced = 0
        self.total_sojourn = 0.0
        self.max_sojourn = 0.0
        self._last_good_grant = 0.0

    # -- introspection ------------------------------------------------------
    @property
    def outstanding(self) -> float:
        return self._granted

    @property
    def queued(self) -> int:
        return len(self._waiters)

    @property
    def queued_bytes(self) -> float:
        return sum(entry[2] for entry in self._waiters)

    def mean_sojourn(self) -> float:
        """Mean queue sojourn (seconds) across this bank's grants."""
        return self.total_sojourn / self.grants if self.grants else 0.0

    # -- grant bookkeeping --------------------------------------------------
    @staticmethod
    def _source_of(key):
        """Source identity behind a grant key: everything but the step.

        Staging grant keys are ``(compute_rank, step)``; stream keys are
        ``(sub_id, member, step)`` — either way the last element is the
        step and the prefix identifies the source.  Taking ``key[0]`` of
        a stream key would merge all of one subscription's members into
        a single "source", so a member with nothing outstanding could be
        starved behind its siblings — breaking the fresh-source progress
        rule the deadlock-freedom argument rests on.
        """
        if isinstance(key, tuple) and key:
            src = key[:-1]
            return src[0] if len(src) == 1 else src
        return key

    def _fits(self, nbytes: float) -> bool:
        """May *nbytes* be granted right now under the byte budget?

        An idle bank always admits (a single chunk may exceed the whole
        budget).
        """
        return self._granted + nbytes <= self.capacity or self._granted == 0.0

    def _grant(self, key, nbytes: float, src) -> None:
        self._grants[key] = nbytes
        self._granted += nbytes
        self._source_out[src] = self._source_out.get(src, 0) + 1
        self.grants += 1
        obs = self.env.obs
        if obs is not None:
            obs.metrics.gauge_max("flow_credit_peak_bytes", self._granted, stage=self.rank)

    def _note_sojourn(self, sojourn: float) -> None:
        self.total_sojourn += sojourn
        self.max_sojourn = max(self.max_sojourn, sojourn)
        obs = self.env.obs
        if obs is not None:
            obs.metrics.observe("flow_credit_sojourn_seconds", sojourn, stage=self.rank)
        target = self.config.codel_target
        if target is not None and sojourn < target:
            # congestion cleared: reset the CoDel control law once the
            # recovery interval has passed without another rejection
            if self.env.now - self._last_good_grant >= CODEL_INTERVAL:
                self._reject_streak = 0
            self._last_good_grant = self.env.now

    def _allowed_sojourn(self) -> float:
        target = self.config.codel_target
        if self._reject_streak == 0:
            return target
        return target / math.sqrt(self._reject_streak + 1.0)

    def _pump(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # byte-budget grants are strictly FIFO (head-of-line)
            while self._waiters:
                ev, key, nbytes, _t, src = self._waiters[0]
                if not self._fits(nbytes):
                    break
                self._waiters.popleft()
                self._grant(key, nbytes, src)
                ev.succeed()
                progressed = True
            # progress rule: a source with nothing outstanding may not
            # be held back by other sources' budget debt (see module
            # docstring — the gather barrier makes that a deadlock)
            for entry in list(self._waiters):
                ev, key, nbytes, _t, src = entry
                if self._source_out.get(src, 0) == 0:
                    self._waiters.remove(entry)
                    self._grant(key, nbytes, src)
                    ev.succeed()
                    progressed = True

    # -- public API ---------------------------------------------------------
    def request(self, key, nbytes: float, *, can_degrade: bool = False) -> Generator:
        """Process body: wait for *nbytes* of credits for chunk *key*.

        Returns True when granted.  Returns False only when
        ``codel_target`` is set, *can_degrade* is True, and the queue
        sojourn exceeded the (shrinking) allowance — the caller must
        then take the synchronous fallback path.

        The two halves are public so that a caller for which the wait
        is rare can skip the generator:
        ``admit(...) or (yield from wait(...))``.
        """
        return self.admit(key, nbytes) or (
            yield from self.wait(key, nbytes, can_degrade=can_degrade)
        )

    def admit(self, key, nbytes: float) -> bool:
        """Zero-time half of :meth:`request`: grant on the spot if allowed.

        True for a redelivered key, a request that fits with nobody
        queued, and a source with nothing outstanding; False means the
        caller must :meth:`wait`.
        """
        if key in self._grants:
            return True  # redelivery/idempotent re-request
        src = self._source_of(key)
        if (not self._waiters and self._fits(nbytes)) or (
            self._source_out.get(src, 0) == 0
        ):
            self._grant(key, nbytes, src)
            self._note_sojourn(0.0)
            return True
        return False

    def wait(self, key, nbytes: float, *, can_degrade: bool = False) -> Generator:
        """Queueing half of :meth:`request`, for a key :meth:`admit` refused."""
        ev = self.env.event()
        entry = [ev, key, nbytes, self.env.now, self._source_of(key)]
        self._waiters.append(entry)
        target = self.config.codel_target
        if target is None or not can_degrade:
            try:
                yield ev
            except BaseException:
                self._cancel(ev, entry, key, nbytes)
                raise
            self._note_sojourn(self.env.now - entry[3])
            return True
        deadline = self.env.timeout(self._allowed_sojourn())
        try:
            yield self.env.any_of([ev, deadline])
        except BaseException:
            self._cancel(ev, entry, key, nbytes)
            raise
        if ev.triggered:
            self._note_sojourn(self.env.now - entry[3])
            return True
        self._cancel(ev, entry, key, nbytes)
        self._reject_streak += 1
        self.rejections += 1
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("flow_credit_rejections", stage=self.rank)
            obs.instant(
                "credit_reject", "flow", tid=f"stage{self.rank}",
                key=repr(key), sojourn=self.env.now - entry[3],
            )
        return False

    def _cancel(self, ev, entry, key, nbytes: float) -> None:
        try:
            self._waiters.remove(entry)
            return
        except ValueError:
            pass
        if ev.triggered:  # granted in the same instant we gave up
            self.release(key)

    def release(self, key) -> None:
        """Return the credits of chunk *key* (idempotent)."""
        nbytes = self._grants.pop(key, None)
        if nbytes is None:
            return
        self._granted = max(0.0, self._granted - nbytes)
        src = self._source_of(key)
        left = self._source_out.get(src, 0) - 1
        if left > 0:
            self._source_out[src] = left
        else:
            self._source_out.pop(src, None)
        self._pump()

    def force_grant(self, key, nbytes: float) -> None:
        """Failover adoption: record a grant even when it overcommits.

        The chunk's bytes are already packed on the compute node; the
        adopting rank must account for them or its budget leaks on
        release.
        """
        if key in self._grants:
            return
        self._grants[key] = nbytes
        self._granted += nbytes
        src = self._source_of(key)
        self._source_out[src] = self._source_out.get(src, 0) + 1
        self.forced += 1

    def revoke_all(self) -> dict:
        """Dead-rank teardown: return and clear all outstanding grants."""
        moved = dict(self._grants)
        self._grants.clear()
        self._source_out.clear()
        self._granted = 0.0
        self._pump()
        return moved
