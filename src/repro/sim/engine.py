"""Generator-based discrete-event simulation engine.

The engine keeps a priority queue of ``(time, priority, sub, seq,
event)`` entries.  :class:`Process` objects wrap generators; each time
the event a process is waiting on fires, the engine advances the
generator, obtaining the next event to wait on.

The queue is one binary heap held as a plain list on :class:`Engine`
and driven with :mod:`heapq` directly.

Determinism: ties in the event queue are broken first by an optional
pluggable :class:`TieBreaker` sub-key and finally by a monotonically
increasing sequence number, so a simulation with a fixed seed replays
identically.  The default tie-breaker assigns every entry sub-key 0 —
pure insertion order, byte-identical to the engine before tie-breaking
became pluggable.  A :class:`SeededTieBreaker` instead permutes the
order of same-``(time, priority)`` events deterministically per seed,
which is how the schedule-perturbation fuzzer in :mod:`repro.check`
hunts for hidden ordering races.  Nothing in the engine consults
wall-clock time.

A process nobody awaits ends without an event: when a generator
finishes (or fails) and no callback is registered on its
:class:`Process`, the process is marked processed on the spot instead
of being queued.  Whoever waits on it later is woken the way every
late waiter is, by an URGENT proxy at the current time.  The one
observable consequence: a waiter registered in the same instant *after*
the process ended is woken by that URGENT proxy, not in the NORMAL slot
the end-event would have popped in.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "TieBreaker",
    "SeededTieBreaker",
    "Engine",
]

# Scheduling priorities: URGENT entries at the same timestamp run before
# NORMAL ones.  Used so that resource releases propagate before new
# acquisitions at the same instant.
URGENT = 0
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for structural errors in simulation programs."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value supplied by the
    interrupter.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes may wait on.

    An event is *triggered* with either a value (:meth:`succeed`) or an
    exception (:meth:`fail`).  Callbacks registered before triggering are
    invoked, in order, when the engine pops the event off the queue.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_scheduled")

    def __init__(self, env: "Engine"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._scheduled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, *, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._enqueue(priority, self)
        return self

    def fail(self, exc: BaseException, *, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every waiting process.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.env._enqueue(priority, self)
        return self

    # -- internals -----------------------------------------------------
    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately via a fresh queue entry so
            # ordering guarantees still hold.
            proxy = Event(self.env)
            proxy._value, proxy._ok, proxy._triggered = self._value, self._ok, True
            proxy.callbacks.append(cb)
            self.env._enqueue(URGENT, proxy)
        else:
            self.callbacks.append(cb)


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Born scheduled: its one queue entry is pushed at construction, and it
    reads ``triggered == False`` until that entry pops.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = False
        self._scheduled = True
        self.delay = delay = float(delay)
        env._push(env.now + delay, NORMAL, self)

    def succeed(self, *_args: Any, **_kwargs: Any) -> "Event":
        """A timeout fires by itself: triggering it by hand is an error."""
        raise SimulationError("a timeout fires by itself and cannot be triggered")

    fail = succeed


class Initialize(Event):
    """Internal event used to start a process at creation time."""

    __slots__ = ()

    def __init__(self, env: "Engine", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._triggered = True
        self._scheduled = True
        env._push(env.now, URGENT, self)


class Process(Event):
    """A running simulation process wrapping a generator.

    A process is itself an event: it triggers (with the generator's
    return value) when the generator finishes, so processes can wait on
    each other simply by yielding the other :class:`Process`.
    """

    __slots__ = ("_gen", "_target", "name")

    def __init__(self, env: "Engine", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(f"process requires a generator, got {gen!r}")
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._scheduled = False
        self._gen = gen
        #: the event last yielded; stale (already processed) while the
        #: generator runs
        self._target: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return  # interrupting a dead process is a no-op
        if self._target is self:
            raise SimulationError("a process cannot interrupt itself")
        # the kick is a failed event carrying the Interrupt, so delivery
        # is an ordinary resume
        kick = Event(self.env)
        kick._value, kick._ok, kick._triggered = Interrupt(cause), False, True
        kick.callbacks.append(self._deliver)
        self.env._enqueue(URGENT, kick)

    def _deliver(self, kick: Event) -> None:
        if self._triggered:
            return
        # Detach from whatever the process was waiting on.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._resume(kick)

    # -- stepping ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Hand *event*'s outcome to the generator; wait on what it yields."""
        env = self.env
        try:
            if event._ok:
                target = self._gen.send(event._value)
            else:
                target = self._gen.throw(event._value)
        except StopIteration as stop:
            self._end(True, stop.value)
            return
        except BaseException as exc:
            # an uncaught interrupt or error fails the process, not the
            # run; a waiter re-raises it
            self._end(False, exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
        if target.env is not env:
            raise SimulationError("yielded event belongs to a different engine")
        self._target = target
        callbacks = target.callbacks
        if callbacks is not None:
            callbacks.append(self._resume)
        else:
            target._add_callback(self._resume)

    def _end(self, ok: bool, value: Any) -> None:
        self._triggered = True
        self._ok = ok
        self._value = value
        self._target = None
        if self.callbacks:
            self.env._enqueue(NORMAL, self)
        else:
            # nobody waits: processed on the spot, no end-event (a later
            # waiter takes the late-waiter path of _add_callback)
            self.callbacks = None


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Engine", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different engines")
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed(self._collect())
        else:
            for ev in self._events:
                ev._add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._events if ev._triggered}

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when any constituent event fires; value maps fired events."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed(self._collect())
        # a constituent that never fires keeps this condition in its
        # callbacks: holding it back would make a cycle through the engine
        self._events = ()


class AllOf(_Condition):
    """Fires when all constituent events have fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            self._events = ()  # as in AnyOf: the others may never fire
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class TieBreaker:
    """Policy assigning the heap sub-key of same-``(time, priority)`` events.

    The engine orders queue entries by ``(time, priority, sub, seq)``.
    The base class returns ``sub = 0`` for every entry, so ordering
    falls through to the insertion sequence number — byte-identical to
    the engine's historical hard-coded behaviour.  Subclasses may
    return any integer to reorder ties; the final ``seq`` component
    keeps the sort total and the replay deterministic regardless.
    """

    def sub_key(self, time: float, priority: int, seq: int, event: "Event") -> int:
        """Sub-key of one queue entry (called once, at enqueue)."""
        return 0


class SeededTieBreaker(TieBreaker):
    """Deterministic pseudo-random permutation of event-queue ties.

    Hashes the insertion sequence number with the seed (a splitmix64
    round — no dependence on ``PYTHONHASHSEED`` or any global RNG), so
    two runs with the same seed replay identically while different
    seeds explore different legal orderings of simultaneous events.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.seed = int(seed)

    def sub_key(self, time: float, priority: int, seq: int, event: "Event") -> int:
        z = (seq * 0x9E3779B97F4A7C15 + self.seed * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return (z ^ (z >> 31)) & self._MASK

    def __repr__(self) -> str:
        return f"SeededTieBreaker(seed={self.seed})"


class Engine:
    """The discrete-event simulation engine.

    An exception escaping a process marks the process failed instead of
    aborting the whole run; waiting on the failed process re-raises it
    (:meth:`run_until_process` does for a process nobody else awaits).

    Parameters
    ----------
    tie_breaker:
        Optional :class:`TieBreaker` supplying the sub-key that orders
        same-``(time, priority)`` events.  ``None`` (default) assigns
        sub-key 0 to every entry — insertion order, byte-identical to
        the engine before tie-breaking became pluggable.

    Attributes
    ----------
    now:
        Current simulated time in seconds.  A plain attribute, read on
        every hot path; only the engine's own pop step writes it.
    obs:
        Optional :class:`repro.obs.Observability` sink.  ``None`` by
        default — every instrumentation site across the codebase guards
        on ``env.obs is not None``, so the disabled pipeline carries no
        tracing overhead beyond one attribute read.  Attach one with
        ``Observability().bind(engine)``.
    check:
        Optional :class:`repro.check.Checker` invariant sink, ``None``
        by default with the same guard discipline as ``obs``: every
        conservation-accounting site across client/scheduler/staging/
        flow/faults tests ``env.check is not None`` first, so the
        disabled pipeline is byte-identical.
    schedule_trace:
        Optional :class:`repro.check.ScheduleTrace` recording every
        event pop (time, priority, sub-key, label).  ``None`` by
        default; the fuzzer attaches one to hash the executed schedule.
    """

    def __init__(self, *, tie_breaker: Optional[TieBreaker] = None):
        self.now = 0.0
        #: heap of ``(time, priority, sub, seq, event)``; ``seq`` is unique,
        #: so comparisons never reach the event
        self._heap: list[tuple[float, int, int, int, Event]] = []
        self._seq = 0
        self._tie_breaker = tie_breaker
        #: observability sink (see class docstring); set via bind()
        self.obs = None
        #: invariant-checker sink (see class docstring); set via bind()
        self.check = None
        #: schedule-trace sink recording event pops (see class docstring)
        self.schedule_trace = None

    # -- public API ------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event firing *delay* seconds from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Return a fresh untriggered event."""
        return Event(self)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start *gen* as a new process at the current time."""
        return Process(self, gen, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any constituent fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when every constituent has fired."""
        return AllOf(self, events)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches *until*."""
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        heap = self._heap
        fire_next = self._fire_next
        stop = float("inf") if until is None else until
        while heap:
            if heap[0][0] > stop:
                self.now = until
                return
            fire_next()
        if until is not None:
            self.now = max(self.now, until)

    def run_until_process(self, proc: Process) -> Any:
        """Run until *proc* completes; return its value or raise its error."""
        while not proc._triggered:
            if not self._heap:
                raise SimulationError(
                    f"deadlock: queue empty but process {proc.name!r} alive"
                )
            self._fire_next()
        if not proc._ok:
            raise proc._value
        return proc._value

    def peek(self) -> float:
        """Time of the next queued event, or ``inf`` if the queue is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    # -- internals -------------------------------------------------------
    def _enqueue(self, priority: int, event: Event) -> None:
        """Schedule a just-triggered *event* at the current time, once."""
        if event._scheduled:
            return
        event._scheduled = True
        self._push(self.now, priority, event)

    def _push(self, t: float, priority: int, event: Event) -> None:
        self._seq = seq = self._seq + 1
        tie_breaker = self._tie_breaker
        sub = 0 if tie_breaker is None else tie_breaker.sub_key(t, priority, seq, event)
        heapq.heappush(self._heap, (t, priority, sub, seq, event))

    def _fire_next(self) -> None:
        """Pop the front entry, advance the clock, trace it, fire it."""
        t, prio, sub, seq, event = heapq.heappop(self._heap)
        if t > self.now:
            self.now = t
        elif t < self.now - 1e-12:
            raise SimulationError("event queue time went backwards")
        if self.schedule_trace is not None:
            self.schedule_trace.record(t, prio, sub, seq, event)
        event._triggered = True  # timeouts trigger at pop, not at schedule
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
