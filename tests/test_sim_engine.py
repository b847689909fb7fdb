"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, Interrupt, SimulationError


def test_timeout_advances_clock():
    eng = Engine()

    def proc(env):
        yield env.timeout(3.5)
        return env.now

    p = eng.process(proc(eng))
    eng.run()
    assert p.value == pytest.approx(3.5)
    assert eng.now == pytest.approx(3.5)


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_timeout_carries_value():
    eng = Engine()

    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    p = eng.process(proc(eng))
    eng.run()
    assert p.value == "payload"


def test_process_waits_on_process():
    eng = Engine()

    def child(env):
        yield env.timeout(2.0)
        return 42

    def parent(env):
        c = env.process(child(env))
        result = yield c
        return (env.now, result)

    p = eng.process(parent(eng))
    eng.run()
    assert p.value == (pytest.approx(2.0), 42)


def test_sequential_timeouts_accumulate():
    eng = Engine()
    times = []

    def proc(env):
        for d in (1.0, 2.0, 3.0):
            yield env.timeout(d)
            times.append(env.now)

    eng.process(proc(eng))
    eng.run()
    assert times == [pytest.approx(1.0), pytest.approx(3.0), pytest.approx(6.0)]


def test_run_until_stops_clock():
    eng = Engine()

    def proc(env):
        yield env.timeout(100.0)

    eng.process(proc(eng))
    eng.run(until=10.0)
    assert eng.now == pytest.approx(10.0)
    eng.run()
    assert eng.now == pytest.approx(100.0)


def test_run_until_in_past_rejected():
    eng = Engine()

    def proc(env):
        yield env.timeout(5.0)

    eng.process(proc(eng))
    eng.run()
    with pytest.raises(ValueError):
        eng.run(until=1.0)


def test_event_succeed_wakes_waiter():
    eng = Engine()
    ev = eng.event()
    log = []

    def waiter(env):
        val = yield ev
        log.append((env.now, val))

    def trigger(env):
        yield env.timeout(4.0)
        ev.succeed("done")

    eng.process(waiter(eng))
    eng.process(trigger(eng))
    eng.run()
    assert log == [(pytest.approx(4.0), "done")]


def test_event_double_trigger_raises():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    eng = Engine()
    ev = eng.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger(env):
        yield env.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    eng.process(waiter(eng))
    eng.process(trigger(eng))
    eng.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_waiting_on_already_processed_event():
    eng = Engine()
    ev = eng.event()
    ev.succeed("early")
    results = []

    def late_waiter(env):
        yield env.timeout(5.0)
        val = yield ev
        results.append(val)

    eng.process(late_waiter(eng))
    eng.run()
    assert results == ["early"]


def test_anyof_fires_on_first():
    eng = Engine()

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(10.0, value="slow")
        fired = yield env.any_of([t1, t2])
        return (env.now, list(fired.values()))

    p = eng.process(proc(eng))
    eng.run(until=2.0)
    assert p.value[0] == pytest.approx(1.0)
    assert p.value[1] == ["fast"]


def test_allof_waits_for_all():
    eng = Engine()

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(10.0, value="b")
        fired = yield env.all_of([t1, t2])
        return (env.now, sorted(fired.values()))

    p = eng.process(proc(eng))
    eng.run()
    assert p.value == (pytest.approx(10.0), ["a", "b"])


def test_allof_empty_fires_immediately():
    eng = Engine()

    def proc(env):
        yield env.all_of([])
        return env.now

    p = eng.process(proc(eng))
    eng.run()
    assert p.value == pytest.approx(0.0)


def test_failed_process_propagates_to_waiter():
    eng = Engine()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            return f"caught {exc}"

    p = eng.process(parent(eng))
    eng.run()
    assert p.value == "caught inner"


def test_interrupt_delivered():
    eng = Engine()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def killer(env, victim):
        yield env.timeout(3.0)
        victim.interrupt("wake up")

    victim = eng.process(sleeper(eng))
    eng.process(killer(eng, victim))
    eng.run()
    assert log == [(pytest.approx(3.0), "wake up")]


def test_interrupt_dead_process_is_noop():
    eng = Engine()

    def quick(env):
        yield env.timeout(1.0)

    p = eng.process(quick(eng))
    eng.run()
    p.interrupt("too late")  # must not raise
    eng.run()


def test_yield_non_event_raises():
    eng = Engine(catch_errors=False)

    def bad(env):
        yield 42

    eng.process(bad(eng))
    with pytest.raises(SimulationError):
        eng.run()


def test_run_until_process_returns_value():
    eng = Engine()

    def proc(env):
        yield env.timeout(7.0)
        return "v"

    p = eng.process(proc(eng))
    assert eng.run_until_process(p) == "v"


def test_run_until_process_detects_deadlock():
    eng = Engine()
    ev = eng.event()  # never triggered

    def stuck(env):
        yield ev

    p = eng.process(stuck(eng))
    with pytest.raises(SimulationError, match="deadlock"):
        eng.run_until_process(p)


def test_determinism_two_runs_identical():
    def build():
        eng = Engine()
        trace = []

        def worker(env, name, delay):
            for i in range(3):
                yield env.timeout(delay)
                trace.append((env.now, name, i))

        for n, d in [("a", 1.0), ("b", 1.0), ("c", 0.5)]:
            eng.process(worker(eng, n, d))
        eng.run()
        return trace

    assert build() == build()


def test_peek_reports_next_event_time():
    eng = Engine()

    def proc(env):
        yield env.timeout(9.0)

    eng.process(proc(eng))
    eng.run(until=0.0)  # start the process
    assert eng.peek() == pytest.approx(9.0)


# same-instant cascades ------------------------------------------------

def _cascade_program(eng, log):
    """Same-time bursts, urgent proxies, and interrupts on *eng*.

    Exercises every same-instant ordering rule of the run loop: URGENT
    events scheduled while NORMAL ones are pending
    (``succeed(priority=URGENT)`` and the urgent proxy created by
    waiting on an already-processed event), plus an interrupt landing
    inside a same-timestamp burst.
    """
    from repro.sim.engine import NORMAL, URGENT

    def worker(i):
        yield eng.timeout(1.0 + (i % 2))
        for h in range(4):
            ev = eng.event()
            ev.succeed(priority=URGENT if (i + h) % 3 == 0 else NORMAL)
            yield ev
        log.append(("hops-done", i, eng.now))

    early = eng.event()

    def firer():
        yield eng.timeout(0.5)
        early.succeed("v")

    def late_waiter():
        yield eng.timeout(2.0)
        value = yield early  # already processed -> URGENT proxy mid-instant
        log.append(("late", value, eng.now))

    def sleeper():
        try:
            yield eng.timeout(50.0)
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, eng.now))

    def interrupter(victim):
        yield eng.timeout(2.0)
        victim.interrupt("stop")

    for i in range(6):
        eng.process(worker(i))
    eng.process(firer())
    eng.process(late_waiter())
    victim = eng.process(sleeper())
    eng.process(interrupter(victim))
    eng.run()


def test_cascade_schedule_matches_recorded_reference():
    """The literals were captured at the last commit that had two event
    queues, where the binary heap and the batch-drained calendar queue
    both produced exactly this run of ``_cascade_program``."""
    from repro.check import ScheduleTrace

    eng = Engine()
    trace = ScheduleTrace()
    eng.schedule_trace = trace
    log = []
    _cascade_program(eng, log)
    assert log == [
        ("hops-done", 0, 1.0),
        ("hops-done", 2, 1.0),
        ("hops-done", 4, 1.0),
        ("late", "v", 2.0),
        ("interrupted", "stop", 2.0),
        ("hops-done", 3, 2.0),
        ("hops-done", 1, 2.0),
        ("hops-done", 5, 2.0),
    ]
    assert trace.count == 57
    assert trace.schedule_hash == (
        "6eefb40ece7c5da2e1ebd8fb414168b5ba6febabf04bd4bd2bd4c472d9e72edb"
    )
    assert eng.now == 50.0


def test_urgent_push_mid_batch_preempts_remaining_normals():
    """An URGENT event scheduled while a same-instant batch of NORMAL
    events is pending runs before the batch's remaining entries."""
    from repro.sim.engine import URGENT

    eng = Engine()
    order = []

    def normal(i):
        yield eng.timeout(1.0)
        if i == 0:  # first of the batch schedules an urgent event
            ev = eng.event()
            ev.callbacks.append(lambda _ev: order.append(("u", _ev.value)))
            ev.succeed("u", priority=URGENT)
        order.append(("n", i))

    for i in range(5):
        eng.process(normal(i))
    eng.run()
    assert order == [("n", 0), ("u", "u"), ("n", 1), ("n", 2), ("n", 3), ("n", 4)]


def test_event_fail_honours_priority():
    """``fail(priority=URGENT)`` overtakes an earlier NORMAL ``succeed``."""
    from repro.sim.engine import URGENT

    eng = Engine()
    order = []
    ok, bad = eng.event(), eng.event()

    def wait_ok():
        yield ok
        order.append("ok")

    def wait_bad():
        try:
            yield bad
        except RuntimeError:
            order.append("bad")

    eng.process(wait_ok())
    eng.process(wait_bad())
    eng.run()  # park both waiters
    ok.succeed()
    bad.fail(RuntimeError("x"), priority=URGENT)
    eng.run()
    assert order == ["bad", "ok"]


def test_exception_mid_instant_leaves_remaining_events_queued():
    """After an exception escapes ``run()`` (``catch_errors=False``) the
    rest of that instant's events are still queued and a second
    ``run()`` resumes them."""
    eng = Engine(catch_errors=False)
    ran = []

    def ok(i):
        yield eng.timeout(1.0)
        ran.append(i)

    def bad():
        yield eng.timeout(1.0)
        raise RuntimeError("boom")

    eng.process(ok(0))
    eng.process(bad())
    eng.process(ok(1))
    eng.process(ok(2))
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()
    assert ran == [0]
    eng.run()
    assert ran == [0, 1, 2]


def _staggered_program(eng):
    """Three workers with interleaved and coinciding wake-up times."""
    log = []

    def worker(name, delay):
        for i in range(3):
            yield eng.timeout(delay)
            log.append((eng.now, name, i))
        return name

    procs = [eng.process(worker(n, d)) for n, d in [("a", 1.0), ("b", 0.5), ("c", 1.5)]]
    return procs, log


def test_run_until_process_pops_like_run():
    """Both loops share one pop-and-fire step: driving the last process
    to finish through ``run_until_process`` records the same schedule
    as ``run()`` on the same program.  (``run_until_process`` returns as
    soon as the process has its value, so its own completion event is
    still queued; one ``run()`` pops it.)"""
    from repro.check import ScheduleTrace

    results = []
    for drive in ("run", "run_until_process"):
        eng = Engine()
        trace = ScheduleTrace()
        eng.schedule_trace = trace
        procs, log = _staggered_program(eng)
        if drive == "run":
            eng.run()
        else:
            assert eng.run_until_process(procs[-1]) == "c"
            eng.run()
        results.append((log, trace.count, trace.schedule_hash, eng.now))
    assert results[0] == results[1]


def test_run_until_process_rejects_time_going_backwards():
    """The shared step keeps the monotonic-clock check ``run`` makes."""
    import heapq

    eng = Engine()

    def proc():
        yield eng.timeout(5.0)

    p = eng.process(proc())
    eng.run(until=1.0)
    heapq.heappush(eng._heap, (0.25, 1, 0, 10**9, eng.event()))
    with pytest.raises(SimulationError, match="went backwards"):
        eng.run_until_process(p)
