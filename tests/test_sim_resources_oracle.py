"""Differential and timer-churn tests for the virtual-time link model.

``RescanBandwidth`` is the processor-sharing pipe ``SharedBandwidth``
replaced, kept as a brute-force oracle: on every membership change it
rebuilds every active transfer's rate, rewrites every remaining-bytes
field and abandons the armed timeout for a new one.  The same seeded
script run through both must agree on every completion time (1e-9
relative), on the order transfers complete in, and on ``bytes_moved``.
A grouped row — ``SharedBandwidth.occupy``: one weighted entry, the
caller owning the wakeup of a pipe it found idle — goes through the
oracle as the ``count`` separate same-instant transfers it stands for.

The churn tests count timers, never seconds: the point of the rewrite
is that one link event costs O(1) host work, and a count is the only
form of that claim that repeats exactly.
"""

import random
from typing import Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Event, SharedBandwidth, SimulationError, Timeout


class _Transfer:
    __slots__ = ("size", "remaining", "event", "last_update", "weight")

    def __init__(self, size: float, event: Event, now: float, weight: float):
        self.size = float(size)
        self.remaining = float(size)
        self.event = event
        self.last_update = now
        self.weight = weight


class RescanBandwidth:
    """Oracle: the O(active)-per-change pipe, one abandoned timeout per change."""

    _EPS_SECONDS = 1e-12

    def __init__(
        self,
        env: Engine,
        rate: float,
        *,
        degradation: Optional[Callable[[float], float]] = None,
    ):
        self.env = env
        self.rate = float(rate)
        self.degradation = degradation
        self._active: list[_Transfer] = []
        self._wakeup: Optional[Event] = None
        #: abandoned wakeups still in the engine's queue
        self._stale: set[Event] = set()
        self._bytes_moved = 0.0

    @property
    def active_transfers(self) -> int:
        return len(self._active)

    @property
    def bytes_moved(self) -> float:
        return self._bytes_moved

    def effective_rate(self) -> float:
        mult = self.degradation(self.env.now) if self.degradation else 1.0
        if not (0.0 < mult <= 1.0):
            raise SimulationError(f"degradation multiplier {mult} outside (0,1]")
        return self.rate * mult

    def transfer(self, nbytes: float, *, weight: float = 1.0) -> Event:
        done = self.env.event()
        if nbytes == 0:
            done.succeed(0.0)
            return done
        self._advance()
        self._active.append(_Transfer(nbytes, done, self.env.now, weight))
        self._reschedule()
        return done

    def _per_transfer_rates(self) -> list[float]:
        total_w = sum(t.weight for t in self._active)
        rate = self.effective_rate()
        return [rate * t.weight / total_w for t in self._active]

    def _advance(self) -> None:
        now = self.env.now
        if not self._active:
            return
        rates = self._per_transfer_rates()
        finished, running = [], []
        for t, r in zip(self._active, rates):
            dt = now - t.last_update
            if dt > 0:
                t.remaining = max(0.0, t.remaining - r * dt)
            t.last_update = now
            (finished if t.remaining <= r * self._EPS_SECONDS else running).append(t)
        self._active = running
        for t in finished:
            self._bytes_moved += t.size
            t.event.succeed(now)

    def _reschedule(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._stale.add(self._wakeup)
        if not self._active:
            self._wakeup = None
            return
        rates = self._per_transfer_rates()
        eta = min(t.remaining / r for t, r in zip(self._active, rates))
        floor = max(self.env.now * 1e-12, self._EPS_SECONDS)
        ev = self.env.timeout(max(eta, floor))
        self._wakeup = ev
        ev._add_callback(self._on_wakeup)

    def _on_wakeup(self, ev: Event) -> None:
        if ev in self._stale:
            self._stale.remove(ev)
            return
        self._advance()
        self._reschedule()


# ------------------------------------------------------------ differential
def windows_mult(windows):
    """Degradation callable: overlapping ``(start, end, factor)`` windows multiply."""

    def mult(now: float) -> float:
        m = 1.0
        for start, end, factor in windows:
            if start <= now < end:
                m *= factor
        return m

    return mult


def simulate(cls, rate, script, windows=()):
    """Run ``script`` through one pipe.

    Rows are ``(start, nbytes, weight)`` — one ``transfer()`` — or
    ``(start, nbytes, 1.0, count)``: *count* same-instant unit-weight
    transfers of *nbytes* each, entered into a ``SharedBandwidth`` as one
    ``occupy()`` whose wakeup this driver owns, as a collective does.
    Returns the completion time of every row, the row indices in the
    order their completions were delivered, and the drained pipe.
    """
    eng = Engine(catch_errors=False)  # an exception in either model is a test error
    pipe = cls(eng, rate, degradation=windows_mult(windows) if windows else None)
    finished_at: list = [None] * len(script)
    order: list[int] = []

    def grouped(i, nbytes, count):
        if cls is not SharedBandwidth:
            events = [pipe.transfer(nbytes) for _ in range(count)]
            events[0].callbacks.insert(0, lambda _ev: order.append(i))
            return eng.all_of(events)
        done = eng.event()
        done.callbacks.append(lambda _ev: order.append(i))
        delay = pipe.occupy(nbytes, count, done.succeed)
        if delay is not None:
            eng.timeout(delay)._add_callback(lambda _ev: pipe.settle())
        return done

    def body(i, start, nbytes, weight, count=None):
        yield eng.timeout(start)
        if count is not None:
            ev = grouped(i, nbytes, count)
        else:
            ev = pipe.transfer(nbytes, weight=weight)
            if nbytes > 0:  # a zero-byte transfer never enters the pipe
                ev.callbacks.insert(0, lambda _ev: order.append(i))
        yield ev
        finished_at[i] = eng.now

    for i, row in enumerate(script):
        eng.process(body(i, *row))
    eng.run()
    return finished_at, order, pipe


def assert_models_agree(rate, script, windows=()):
    new_t, new_order, new = simulate(SharedBandwidth, rate, script, windows)
    old_t, old_order, old = simulate(RescanBandwidth, rate, script, windows)
    assert new_t == pytest.approx(old_t, rel=1e-9, abs=0.0)
    assert new_order == old_order
    if any(len(row) > 3 for row in script):
        # count * nbytes added once against nbytes added count times
        assert new.bytes_moved == pytest.approx(old.bytes_moved, rel=1e-9)
    else:
        assert new.bytes_moved == old.bytes_moved
    assert new.active_transfers == old.active_transfers == 0
    # a drained pipe carries nothing over: no drift, no armed wakeup
    assert new._vtime == new._weight == 0.0
    assert new._wake_at == float("inf")


def seeded_script(rng: random.Random, n: int, grouped: bool = False):
    """Bursts and stragglers, weights in [0.1, 5], equal/tiny/zero sizes.

    With *grouped*, a third of the arrivals are grouped rows instead.
    Their sizes stay above ``rate * _EPS_SECONDS`` bytes: below it a
    transfer counts as done on arrival, so the next of *count* separate
    arrivals would retire the one before it — the one regime in which a
    weighted entry is not its *count* transfers (by ~1e-13 s).
    """
    script, t = [], 0.0
    while len(script) < n:
        if rng.random() < 0.6:
            t += rng.choice([0.0, 0.0, rng.uniform(0.0, 3.0), rng.uniform(0.0, 1e-6)])
        if grouped and rng.random() < 1 / 3:
            size = rng.choice([rng.uniform(1.0, 500.0), rng.uniform(1e3, 1e5)])
            script.append((t, size, 1.0, rng.choice([1, 2, 3, 4, 7])))
            continue
        burst = rng.choice([1, 1, 2, 5, 17])
        equal = rng.choice([None, None, rng.uniform(1.0, 500.0)])
        for _ in range(burst):
            size = equal or rng.choice(
                [0.0, rng.uniform(1e-9, 1e-6), rng.uniform(1.0, 500.0), rng.uniform(1e3, 1e5)]
            )
            weight = rng.choice([1.0, 1.0, rng.uniform(0.1, 5.0)])
            script.append((t, size, weight))
    return script


def seeded_windows(rng: random.Random, horizon: float):
    """Overlapping degradation windows, most opening mid-transfer."""
    out = []
    for _ in range(rng.randrange(0, 5)):
        start = rng.uniform(0.0, horizon)
        out.append((start, start + rng.uniform(0.01, horizon / 2), rng.uniform(0.05, 1.0)))
    return out


@pytest.mark.parametrize("block", range(8))
def test_seeded_scripts_match_rescan_oracle(block):
    for seed in range(50 * block, 50 * block + 50):
        rng = random.Random(seed)
        script = seeded_script(rng, rng.randrange(1, 60))
        windows = seeded_windows(rng, horizon=max(t for t, _, _ in script) + 50.0)
        assert_models_agree(rng.choice([100.0, 3e3, 6.4e9]), script, windows)


@pytest.mark.parametrize("block", range(4))
def test_seeded_scripts_with_grouped_entries_match_rescan_oracle(block):
    for seed in range(50 * block, 50 * block + 50):
        rng = random.Random(1000 + seed)
        script = seeded_script(rng, rng.randrange(1, 40), grouped=True)
        windows = seeded_windows(rng, horizon=max(row[0] for row in script) + 50.0)
        assert_models_agree(rng.choice([100.0, 3e3, 6.4e9]), script, windows)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("nbytes", [50.0, 0.1, 1e5 / 3])
def test_grouped_entry_is_k_same_instant_transfers(k, nbytes):
    assert_models_agree(100.0, [(1.0, nbytes, 1.0, k)])
    times, _, pipe = simulate(SharedBandwidth, 100.0, [(1.0, nbytes, 1.0, k)])
    assert times == [pytest.approx(1.0 + k * nbytes / 100.0, rel=1e-12)]
    assert pipe.bytes_moved == k * nbytes


#: a grouped entry of 4 x 50 B entering at t=1 on a 100 B/s pipe: alone it
#: is due at t=3, which is when its owner's timer fires whatever happens
_GROUP = (1.0, 50.0, 1.0, 4)


@pytest.mark.parametrize(
    "foreign",
    [
        [(0.5, 100.0, 1.0)],  # already in the pipe: the entry arms normally
        [(0.5, 20.0, 2.0)],  # in the pipe, gone before the entry is due
        [(1.0, 100.0, 1.0)],  # same instant (both script orders below)
        [(2.0, 100.0, 1.0)],  # mid-entry: the arrival arms the pipe itself
        [(2.0, 1e-7, 1.0)],  # mid-entry, gone again long before t=3
        [(3.0, 100.0, 1.0)],  # exactly when the entry ends
        [(3.0 + 1e-9, 100.0, 1.0)],
        [(1.5, 30.0, 0.7), (2.5, 60.0, 3.0), (2.5, 5.0, 1.0)],
    ],
)
def test_foreign_transfers_around_a_grouped_entry(foreign):
    assert_models_agree(100.0, [_GROUP] + foreign)
    assert_models_agree(100.0, foreign + [_GROUP])


def test_owner_timer_on_a_since_contended_pipe_is_a_no_op():
    eng = Engine()
    pipe = SharedBandwidth(eng, 100.0)
    done = []
    delay = pipe.occupy(50.0, 4, done.append)
    assert delay == 2.0 and eng.peek() == float("inf")  # idle: left unarmed
    eng.timeout(delay)._add_callback(lambda _ev: pipe.settle())
    eng.run(until=1.0)
    foreign = pipe.transfer(100.0)  # arms the pipe; the entry is now due at t=2.25
    eng.run(until=1.9)
    before = dict(vars(pipe))
    eng.run(until=2.1)  # the owner's timer fired at t=2
    assert vars(pipe) == before and done == []
    eng.run()
    assert done == [2.25] and foreign.value == 3.0
    assert pipe.occupy(50.0, 1, done.append) == 0.5  # drained: idle again
    pipe.settle()  # nothing is due yet: a stray settle leaves it alone
    assert pipe.active_transfers == 1 and done == [2.25]


def test_busy_or_armed_pipe_arms_itself_on_a_grouped_entry():
    eng = Engine()
    pipe = SharedBandwidth(eng, 100.0)
    pipe.transfer(100.0)
    done = []
    assert pipe.occupy(50.0, 3, done.append) is None
    eng.run()  # nobody settles: the pipe drives itself
    assert done == [2.0] and eng.now == 2.5 and pipe.bytes_moved == 250.0
    with pytest.raises(ValueError):
        pipe.occupy(0.0, 3, done.append)
    with pytest.raises(ValueError):
        pipe.occupy(10.0, 0, done.append)


@pytest.mark.parametrize(
    "windows",
    [
        [(2.0, 10.0, 0.5)],  # opens mid-entry: charged at the entry's wakeup
        [(0.0, 2.0, 0.25)],  # closes mid-entry
        [(2.999, 3.001, 0.1)],  # covers only the instant the entry is due
        [(1.5, 2.5, 0.5), (2.0, 6.0, 0.3)],
    ],
)
def test_degradation_window_across_a_grouped_entry(windows):
    assert_models_agree(100.0, [_GROUP], windows)
    assert_models_agree(100.0, [_GROUP, (2.0, 100.0, 1.0)], windows)


@given(
    script=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.5, 0.5, 1.0, 2.5, 7.0]),  # repeats: same-instant bursts
            st.one_of(
                st.sampled_from([0.0, 1e-7, 64.0, 64.0, 1000.0]),
                st.floats(min_value=1e-3, max_value=1e5),
            ),
            st.one_of(st.just(1.0), st.floats(min_value=0.1, max_value=5.0)),
        ),
        min_size=1,
        max_size=40,
    ),
    windows=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=20.0),
            st.floats(min_value=0.01, max_value=30.0),
            st.floats(min_value=0.05, max_value=1.0),
        ).map(lambda w: (w[0], w[0] + w[1], w[2])),
        max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_random_scripts_match_rescan_oracle(script, windows):
    assert_models_agree(100.0, script, windows)


def test_all_zero_byte_script_never_touches_the_pipe():
    times, order, pipe = simulate(SharedBandwidth, 10.0, [(1.0, 0.0, 1.0), (1.0, 0.0, 2.0)])
    assert times == [1.0, 1.0] and order == []
    assert pipe.bytes_moved == 0.0 and pipe._seq == 0


# -------------------------------------------------------------- timer churn
class TimerCount:
    """Counts the ``Timeout``s one pipe arms (they call back into it)."""

    def __init__(self, monkeypatch, pipe):
        self.created = 0

        def add_callback(timeout, cb):
            if getattr(cb, "__self__", None) is pipe:
                self.created += 1
            Event._add_callback(timeout, cb)

        monkeypatch.setattr(Timeout, "_add_callback", add_callback)


@pytest.mark.parametrize("k", [1, 2, 64, 400])
def test_same_instant_burst_arms_two_timeouts(monkeypatch, k):
    eng = Engine()
    pipe = SharedBandwidth(eng, 100.0)
    timers = TimerCount(monkeypatch, pipe)
    events = [pipe.transfer(50.0) for _ in range(k)]
    eng.run()
    assert timers.created <= 2
    assert [ev.value for ev in events] == [pytest.approx(0.5 * k)] * k
    assert pipe.active_transfers == 0 and pipe.bytes_moved == 50.0 * k


def test_staggered_arrivals_arm_at_most_two_timeouts_each(monkeypatch):
    eng = Engine()
    pipe = SharedBandwidth(eng, 100.0)
    timers = TimerCount(monkeypatch, pipe)
    rng = random.Random(5)
    n, done = 200, []

    def body(start, size):
        yield eng.timeout(start)
        yield pipe.transfer(size)
        done.append(eng.now)

    for _ in range(n):
        eng.process(body(rng.uniform(0.0, 40.0), rng.uniform(1.0, 80.0)))
    eng.run()
    assert len(done) == n
    assert timers.created <= 2 * n


def test_drained_pipe_leaves_no_armed_wakeup_and_no_virtual_time():
    eng = Engine()
    pipe = SharedBandwidth(eng, 100.0)
    pipe.transfer(30.0, weight=0.3)
    pipe.transfer(70.0, weight=2.2)
    eng.run()
    assert pipe.active_transfers == 0
    assert pipe._vtime == 0.0 and pipe._weight == 0.0
    assert pipe._wake_at == float("inf")
    assert eng.peek() == float("inf")  # nothing of the pipe's is left queued


def test_early_fired_wakeup_never_samples_degradation():
    eng = Engine()
    sampled = []

    def mult(now):
        sampled.append(now)
        return 1.0

    pipe = SharedBandwidth(eng, 100.0, degradation=mult)
    pipe.transfer(100.0)  # armed for t=1
    pipe.transfer(100.0)  # head now due at t=2; the t=1 wakeup is kept
    eng.run(until=1.5)
    assert sampled == [0.0, 0.0]  # the two transfer() calls, not the early fire
    assert pipe.active_transfers == 2
    eng.run()
    assert sampled == [0.0, 0.0, 2.0]
    assert eng.now == pytest.approx(2.0)


def test_window_between_changes_is_charged_to_the_interval_ending_at_the_later_one():
    """The model property the rewrite keeps: capacity is sampled only at
    membership changes, and the sample prices the whole interval that
    ends there.  A half-rate window opening at t=1 — between the arrival
    at t=0 and the wakeup at t=2 — is therefore charged from t=0, not
    from t=1: 100 of 200 bytes are left at t=2 (a forward-charging model
    would leave 50) and the transfer ends at t=4.
    """
    for cls in (SharedBandwidth, RescanBandwidth):
        eng = Engine()
        pipe = cls(eng, 100.0, degradation=windows_mult([(1.0, 10.0, 0.5)]))
        done = pipe.transfer(200.0)
        eng.run()
        assert done.value == pytest.approx(4.0), cls.__name__
