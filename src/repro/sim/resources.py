"""Shared resources for simulation processes.

Provides the synchronisation primitives used throughout the machine
model:

``Resource``
    Counted, FIFO-queued capacity (e.g. CPU cores, file-system service
    slots).

``Store``
    A FIFO buffer of Python objects with blocking get (e.g. message
    queues, staging-node chunk queues).

``Mailbox``
    Tag- and source-addressable message store used by the simulated MPI
    point-to-point layer.

``SharedBandwidth``
    A processor-sharing bandwidth pipe: *n* concurrent transfers each
    progress at ``rate / n``.  Used for network links and the parallel
    file system's aggregate bandwidth.  A per-pipe virtual clock makes
    every membership change O(log n) while keeping the model a precise
    fluid-flow approximation rather than a per-packet one.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Deque, Optional

from repro.sim.engine import Engine, Event, SimulationError

__all__ = ["Resource", "Store", "Mailbox", "SharedBandwidth", "PreemptionError"]


class PreemptionError(Exception):
    """Raised inside a process whose resource grant was revoked."""


class Resource:
    """Counted capacity with FIFO granting.

    Usage::

        req = resource.request()
        yield req
        ...  # hold
        resource.release()
    """

    def __init__(self, env: Engine, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[tuple[Event, int]] = deque()

    def request(self, n: int = 1) -> Event:
        """Return an event that fires when *n* units are granted atomically.

        Multi-unit requests are granted all-or-nothing in FIFO order, so
        two processes each needing several units can never deadlock by
        holding partial grants.
        """
        if not 1 <= n <= self.capacity:
            raise ValueError(f"cannot grant {n} units of capacity {self.capacity}")
        ev = self.env.event()
        if not self._waiters and self._in_use + n <= self.capacity:
            self._in_use += n
            ev.succeed()
        else:
            self._waiters.append((ev, n))
        return ev

    def release(self, n: int = 1) -> None:
        """Return *n* units; grants queued waiters FIFO."""
        if n < 1 or self._in_use < n:
            raise SimulationError(f"release({n}) without matching grant")
        self._in_use -= n
        while self._waiters:
            ev, need = self._waiters[0]
            if self._in_use + need > self.capacity:
                break  # FIFO head-of-line: preserves fairness
            self._waiters.popleft()
            self._in_use += need
            ev.succeed()

    def cancel(self, ev: Event, n: int = 1) -> None:
        """Withdraw a pending or granted request (interrupted holder).

        If *ev* is still queued it is removed; if the grant already went
        through, the units are released.  Needed when a process waiting
        on a grant is interrupted (e.g. a staging-node crash), so the
        abandoned request cannot leak capacity.
        """
        for i, (wev, _need) in enumerate(self._waiters):
            if wev is ev:
                del self._waiters[i]
                return
        if ev.triggered:
            self.release(n)


class Store:
    """Unbounded FIFO of items with a blocking get."""

    def __init__(self, env: Engine):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Deposit *item*, handing it to the oldest waiting getter.

        Returns an event that has already fired: a put never blocks,
        but yielding it lets a producer give way to the getter it woke.
        """
        ev = self.env.event()
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        ev.succeed()
        return ev

    def get(self) -> Event:
        """Return event yielding the oldest item."""
        ev = self.env.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


class Mailbox:
    """Tag-matched message store.

    Messages are matched FIFO within a tag, or in arrival order by a
    receiver that takes any tag; each message keeps its source.
    """

    ANY = object()

    def __init__(self, env: Engine):
        self.env = env
        self._messages: Deque[tuple[Any, Any, Any]] = deque()  # (src, tag, payload)
        self._receivers: Deque[tuple[Any, Event]] = deque()

    def deliver(self, source: Any, tag: Any, payload: Any) -> None:
        """Deposit a message; wakes a matching receiver if one waits."""
        for i, (rtag, ev) in enumerate(self._receivers):
            if rtag is Mailbox.ANY or rtag == tag:
                del self._receivers[i]
                ev.succeed((source, tag, payload))
                return
        self._messages.append((source, tag, payload))

    def receive(self, tag: Any = ANY) -> Event:
        """Return event yielding ``(source, tag, payload)`` of a match."""
        for i, msg in enumerate(self._messages):
            if tag is Mailbox.ANY or msg[1] == tag:
                del self._messages[i]
                ev = self.env.event()
                ev.succeed(msg)
                return ev
        ev = self.env.event()
        self._receivers.append((tag, ev))
        return ev

    def cancel(self, ev: Event) -> None:
        """Withdraw a pending ``receive``.

        A process interrupted while blocked on a mailbox must withdraw
        its receiver, otherwise the stale entry would silently consume
        (and lose) the next matching message.
        """
        for i, (_tag, rev) in enumerate(self._receivers):
            if rev is ev:
                del self._receivers[i]
                return

    def purge(self) -> list[tuple[Any, Any, Any]]:
        """Remove and return all queued messages.

        Used by the recovery protocol to flush requests addressed to a
        staging rank that died before serving them; the controller then
        re-delivers them to the failover target.
        """
        removed = list(self._messages)
        self._messages.clear()
        return removed

    @property
    def pending(self) -> int:
        return len(self._messages)


_NEVER = float("inf")
_ARRIVAL = itemgetter(1)


class SharedBandwidth:
    """Processor-sharing fluid pipe.

    ``transfer(nbytes)`` returns an event that fires when the transfer
    completes; concurrent transfers share ``rate`` proportionally to
    their weights.  An optional ``degradation`` callable lets callers
    inject time-varying capacity (e.g. file-system interference):
    it receives the current simulated time and returns a multiplier in
    ``(0, 1]``, sampled at every membership change and charged to the
    interval that ends there.

    The pipe keeps one virtual clock instead of per-transfer state:
    ``V`` is the bytes served so far to a transfer of weight 1 and
    advances at ``rate * mult / sum(weights)``; a transfer arriving at
    virtual time ``V`` finishes when the clock reaches its tag
    ``V + nbytes / weight``.  Tags sit in a heap, so an arrival or a
    departure touches no other transfer.  One wakeup is live per pipe:
    a change that only delays the head keeps the armed timeout, which
    re-arms itself when it fires before the head is due.

    Who arms the wakeup.  ``transfer()`` always arms the pipe.
    ``occupy()`` — one entry standing for ``count`` equal transfers of
    one weight that arrive together (count 1: one ``transfer()``),
    finishing into a callable — leaves a pipe it found idle *unarmed*
    and returns the seconds until the entry is due: the caller owns that
    wakeup and must call ``settle()`` then (one timer can settle every
    pipe that shares the delay).  Without a degradation
    hook the idle pipe does not even queue the entry: it holds it aside,
    and the owner's ``settle()`` finishes it in closed form — the same
    arithmetic and ε test as ``_advance`` on a heap holding only it.
    Any later arrival first pushes a held entry into the heap, exactly
    as ``occupy()`` would have pushed it, then arms the pipe as usual,
    after which the pipe drives itself and the owner's ``settle()`` is a
    no-op; a pipe that is busy (or still armed) at entry is armed
    normally and ``occupy()`` returns ``None``.  Either way the entries
    finish at the instants, and degradation is sampled at the instants,
    that ``count`` separate ``transfer()`` calls would produce.
    """

    # Residual work below this many seconds (at current rate) counts as
    # done; prevents float-precision spins where the next wakeup cannot
    # advance the clock.
    _EPS_SECONDS = 1e-12

    def __init__(
        self,
        env: Engine,
        rate: float,
        *,
        degradation: Optional[Callable[[float], float]] = None,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.env = env
        self.rate = float(rate)
        self.degradation = degradation
        #: finish tags: (tag, arrival seq, weight, size, completion callable)
        self._heap: list[
            tuple[float, int, float, float, Callable[[float], Any]]
        ] = []
        self._seq = 0
        self._vtime = 0.0  # V; reset with _weight whenever the pipe drains
        self._weight = 0.0  # sum of active weights
        self._last = 0.0  # simulated time V was last advanced to
        self._due = 0.0  # projected completion time of the heap's head
        self._wake_at = _NEVER  # fire time of the live wakeup, if one is armed
        self._gen = 0  # generation of the live wakeup; older ones are no-ops
        self._bytes_moved = 0.0
        #: an idle pipe's one undisturbed ``occupy()`` entry, kept out of
        #: the heap: (start, bytes per unit weight, weight, size, on_done)
        self._held: Optional[tuple[float, float, float, float, Callable[[float], Any]]] = None

    # -- public ----------------------------------------------------------
    @property
    def active_transfers(self) -> int:
        """Number of transfers currently in flight."""
        return len(self._heap) + (self._held is not None)

    @property
    def bytes_moved(self) -> float:
        """Total bytes that have completed through this pipe."""
        return self._bytes_moved

    def effective_rate(self) -> float:
        """Current capacity after the degradation multiplier."""
        mult = self.degradation(self.env.now) if self.degradation else 1.0
        if not (0.0 < mult <= 1.0):
            raise SimulationError(f"degradation multiplier {mult} outside (0,1]")
        return self.rate * mult

    def transfer(self, nbytes: float, *, weight: float = 1.0) -> Event:
        """Begin moving *nbytes*; event fires at completion."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        if weight <= 0:
            raise ValueError("weight must be positive")
        done = self.env.event()
        if nbytes == 0:
            done.succeed(0.0)
            return done
        now = self.env.now
        rate = self._enter(now, nbytes / weight, weight, float(nbytes), done.succeed)
        self._arm(now, rate)
        return done

    def occupy(
        self,
        nbytes: float,
        count: int,
        on_done: Callable[[float], Any],
        *,
        weight: float = 1.0,
    ) -> Optional[float]:
        """Enter *count* same-instant transfers of *nbytes* each, every
        one of *weight*, as one entry.

        On a processor-sharing pipe they are indistinguishable from one
        transfer of weight ``count * weight``, so that is what is queued,
        with the tag ``transfer(nbytes, weight=weight)`` would get (one
        ``occupy`` of count 1 *is* that transfer, bit for bit);
        ``on_done(now)`` runs once when it finishes and may only trigger
        events, never re-enter a pipe.  Returns the seconds until the
        entry is due when the pipe was idle — it is then left unarmed and
        the caller must ``settle()`` it at that time — else ``None``
        (the pipe arms itself).  See the class docstring.
        """
        if nbytes <= 0 or count < 1 or weight <= 0:
            raise ValueError("occupy needs a positive size, count and weight")
        now = self.env.now
        # the tag is bytes per unit weight: nbytes / weight, never
        # (count * nbytes) / (count * weight), which is inexact off powers of two
        per_weight = nbytes / weight
        size = count * float(nbytes)
        weight = count * weight
        if self._held is not None or self._heap or self._wake_at != _NEVER:
            self._arm(now, self._enter(now, per_weight, weight, size, on_done))
            return None
        if self.degradation is not None:
            return self._project(now, self._enter(now, per_weight, weight, size, on_done))
        # idle: held out of the heap, due when it would have been projected
        # there (V and the weight start from zero)
        eta = per_weight * weight / self.rate
        if eta < self._EPS_SECONDS or eta < now * 1e-12:  # _project's floors
            eta = max(now * 1e-12, self._EPS_SECONDS)
        self._due = now + eta
        self._held = (now, per_weight, weight, size, on_done)
        return eta

    def settle(self) -> None:
        """Owner's wakeup of a pipe ``occupy()`` left unarmed.

        A no-op when the pipe has armed itself since (something arrived),
        has drained, or holds a later owner's entry that is not due yet;
        otherwise it is the pipe's own wakeup: finish what is due, re-arm
        for what is left.  A held entry nobody disturbed finishes here in
        closed form, with ``_advance``'s arithmetic and ε test.
        """
        now = self.env.now
        held = self._held
        if held is None:  # a heap entry, unless the pipe armed itself
            if self._wake_at == _NEVER and self._heap and now >= self._due:
                self._wake(now)
            return
        if now < self._due:  # held entries are never armed: is it due?
            return
        start, per_weight, weight, size, on_done = held
        if self.degradation is None:
            speed = self.rate / weight
            if per_weight <= speed * (now - start) + speed * self._EPS_SECONDS:
                self._held = None
                self._bytes_moved += size
                on_done(now)
                return
        self._push_held()
        self._wake(now)

    # -- internals ---------------------------------------------------------
    def _enter(
        self,
        now: float,
        per_weight: float,
        weight: float,
        size: float,
        on_done: Callable[[float], Any],
    ) -> float:
        """Queue one entry at the current virtual time; returns the rate sampled."""
        if self._held is not None:
            self._push_held()
        rate = self.rate if self.degradation is None else self.effective_rate()
        if self._heap:
            self._advance(now, rate)
        else:
            self._last = now
        self._seq += 1
        self._weight += weight
        heappush(
            self._heap, (self._vtime + per_weight, self._seq, weight, size, on_done)
        )
        return rate

    def _push_held(self) -> None:
        """Put the held entry in the heap, exactly as ``occupy()`` would
        have pushed it at its start: the pipe was idle then, so ``V`` and
        the weight start from zero."""
        start, per_weight, weight, size, on_done = self._held
        self._held = None
        self._last = start
        self._weight = weight
        self._seq += 1
        self._heap.append((per_weight, self._seq, weight, size, on_done))

    def _advance(self, now: float, rate: float) -> None:
        """Run the virtual clock up to *now* at *rate*; finish what is due."""
        heap = self._heap
        speed = rate / self._weight
        if now > self._last:
            self._vtime += speed * (now - self._last)
        self._last = now
        limit = self._vtime + speed * self._EPS_SECONDS
        if heap[0][0] > limit:
            return
        finished = []
        while heap and heap[0][0] <= limit:
            finished.append(heappop(heap))
        finished.sort(key=_ARRIVAL)  # popped in tag order; succeed in arrival order
        for _tag, _seq, weight, size, on_done in finished:
            self._weight -= weight
            self._bytes_moved += size
            on_done(now)
        if not heap:
            self._vtime = self._weight = 0.0  # drained: no drift carries over

    def _project(self, now: float, rate: float) -> float:
        """Set ``_due`` for the heap's head at *rate*; returns the delay."""
        eta = (self._heap[0][0] - self._vtime) * self._weight / rate
        # Guarantee the clock actually advances past `now` in floats.
        eta = max(eta, now * 1e-12, self._EPS_SECONDS)
        self._due = now + eta
        return eta

    def _arm(self, now: float, rate: float) -> None:
        """Point the live wakeup at the head's projected completion."""
        eta = self._project(now, rate)
        if self._wake_at > self._due:  # none armed, or armed too late
            self._gen += 1
            self._wake_at = self._due
            self.env.timeout(eta, self._gen)._add_callback(self._on_wakeup)

    def _on_wakeup(self, ev: Event) -> None:
        if ev.value != self._gen:
            return  # superseded by an earlier wakeup
        now = self.env.now
        if now < self._due:
            # Arrivals since arming pushed the head later.  Nothing is due,
            # so state and degradation stay untouched; `now < due` makes
            # the delay positive, and `_due` tracks where it really lands.
            delay = self._due - now
            self._due = self._wake_at = now + delay
            self.env.timeout(delay, self._gen)._add_callback(self._on_wakeup)
            return
        self._wake_at = _NEVER
        self._wake(now)

    def _wake(self, now: float) -> None:
        """The head is due: finish it, point the wakeup at what is left."""
        rate = self.rate if self.degradation is None else self.effective_rate()
        self._advance(now, rate)
        if self._heap:
            self._arm(now, rate)
