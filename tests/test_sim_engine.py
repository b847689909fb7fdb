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
    eng = Engine()

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
    """The log was captured at the last commit that had two event
    queues, where the binary heap and the batch-drained calendar queue
    both produced exactly this run of ``_cascade_program``.  The pop
    count and hash were re-recorded (57 -> 47) when a process nobody
    awaits stopped scheduling an end-event: the ten processes here are
    all fire-and-forget."""
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
    assert trace.count == 47
    assert trace.schedule_hash == (
        "e168c86d5d71202912ced60cef849b1ec8f59c52f927330fcedd8ad8b9e34638"
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
    """After an exception escapes ``run()`` (a process yielded a
    non-event) the rest of that instant's events are still queued and a
    second ``run()`` resumes them."""
    eng = Engine()
    ran = []

    def ok(i):
        yield eng.timeout(1.0)
        ran.append(i)

    def bad():
        yield eng.timeout(1.0)
        yield "boom"

    eng.process(ok(0))
    eng.process(bad())
    eng.process(ok(1))
    eng.process(ok(2))
    with pytest.raises(SimulationError, match="boom"):
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
    as ``run()`` on the same program.  (The trailing ``run()`` drains
    whatever the other workers still have queued.)"""
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


# order preservation under engine rewrites -------------------------------

def _seeded_script(eng, seed=7):
    """A seeded mix of timeouts, child processes, ``any_of``/``all_of``,
    a contended resource and interrupts.

    Every process is waited on before it ends (children by their parent's
    condition, top-level ones by the final ``all_of``), so each process
    end is an observed event and the schedule is the same under any rule
    for unobserved ones.  Returns the top-level processes and the log.
    """
    import random

    from repro.sim.resources import Resource

    rng = random.Random(seed)
    delays = (0.0, 0.25, 0.5, 0.5, 1.0)  # coinciding wake-ups on purpose
    lock = Resource(eng, 2)
    log = []

    def leaf(i, k, delay, fails):
        yield eng.timeout(delay)
        if fails:
            raise KeyError((i, k))
        return (i, k)

    def worker(i, plan):
        for hop, (start, kids, mode, hold) in enumerate(plan):
            yield eng.timeout(start)
            procs = [eng.process(leaf(i, k, d, f)) for k, (d, f) in enumerate(kids)]
            cond = eng.any_of(procs) if mode == "any" else eng.all_of(procs)
            try:
                got = yield cond
                log.append((eng.now, i, hop, mode, sorted(got.values())))
            except KeyError as exc:
                log.append((eng.now, i, hop, "failed", exc.args[0]))
            req = lock.request()
            try:
                yield req
                yield eng.timeout(hold)
            except Interrupt as exc:
                log.append((eng.now, i, hop, "interrupted", exc.cause))
                lock.cancel(req)
                return ("stopped", i)
            lock.release()
        return ("done", i)

    def interrupter(victims, plan):
        for delay, who in plan:
            yield eng.timeout(delay)
            victims[who].interrupt(("by", who, eng.now))

    def plan_for():
        return [
            (
                rng.choice(delays),
                [(rng.choice(delays), rng.random() < 0.15) for _ in range(rng.randrange(1, 4))],
                rng.choice(("any", "all")),
                rng.choice(delays),
            )
            for _ in range(4)
        ]

    workers = [eng.process(worker(i, plan_for()), name=f"w{i}") for i in range(8)]
    kicks = [(rng.choice(delays), rng.randrange(8)) for _ in range(12)]
    procs = workers + [eng.process(interrupter(workers, kicks), name="kick")]
    eng.all_of(procs)
    return procs, log


def _traced_script(drive):
    from repro.check import ScheduleTrace

    eng = Engine()
    trace = eng.schedule_trace = ScheduleTrace()
    procs, log = _seeded_script(eng)
    if drive == "run_until_process":
        # step through _fire_next for part of the run, drain with run()
        assert eng.run_until_process(procs[3])[1] == 3
    eng.run()
    assert all(p.triggered for p in procs)
    return log, trace.count, trace.schedule_hash, eng.now


def test_seeded_script_schedule_is_pinned():
    """Pinned at the commit before the event life was rewritten: the
    rewrite (slots, direct pushes, one resume body, the inline loop,
    the failed-event interrupt kick) reorders nothing."""
    log, count, digest, now = _traced_script("run")
    assert {entry[3] for entry in log} == {"any", "all", "failed", "interrupted"}
    assert (count, now) == (208, 6.5)
    assert digest == "6e161ff7b360d750d21d69dc6d274d3664dc42daff6a6492805d3c82692890c7"


def test_seeded_script_same_schedule_through_both_loops():
    """``run()`` carries the pop inline and ``run_until_process`` steps
    through ``_fire_next``: one schedule either way."""
    assert _traced_script("run") == _traced_script("run_until_process")


# a timeout is born scheduled -----------------------------------------------

def test_pending_timeout_cannot_be_triggered_and_the_run_survives():
    """Triggering a pending timeout used to queue it twice; the second
    pop found ``callbacks`` already ``None`` and killed the run."""
    eng = Engine()
    seen = []

    def waiter(t):
        seen.append(((yield t), eng.now))

    t = eng.timeout(5.0, "on time")
    eng.process(waiter(t))
    with pytest.raises(SimulationError, match="cannot be triggered"):
        t.succeed("early")
    with pytest.raises(SimulationError, match="cannot be triggered"):
        t.fail(RuntimeError("early"))
    assert not t.triggered
    eng.run()
    assert seen == [("on time", 5.0)] and t.triggered
    with pytest.raises(SimulationError):
        t.succeed("again")
    eng.run()
    assert eng.now == 5.0 and eng.peek() == float("inf")


# slotted events, a plain clock ---------------------------------------------

def test_events_take_no_ad_hoc_attributes():
    eng = Engine()

    def body():
        yield eng.timeout(1.0)

    proc = eng.process(body())
    events = [eng.event(), eng.timeout(1.0), proc, eng.any_of([proc]), eng.all_of([proc])]
    for ev in events:
        with pytest.raises(AttributeError):
            ev.foo = 1
        assert not hasattr(ev, "__dict__")
    eng.run()


def test_only_the_engine_writes_the_clock():
    """``Engine.now`` is a plain attribute, so nothing guards it but this:
    no module under ``src/`` other than ``sim/engine.py`` assigns a
    ``.now`` attribute."""
    import ast
    import pathlib

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path.parts[-2:] == ("sim", "engine.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr == "now":
                        offenders.append(f"{path.relative_to(src)}:{sub.lineno}")
    assert offenders == []


# interrupts: a failed kick through the one resume body ---------------------

def test_interrupt_while_waiting_on_a_timeout_detaches_from_it():
    eng = Engine()
    log = []

    def sleeper():
        try:
            yield eng.timeout(10.0)
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, eng.now))
        yield eng.timeout(20.0)  # outlives the abandoned timeout
        log.append(("woke", eng.now))

    def killer(victim):
        yield eng.timeout(3.0)
        victim.interrupt("stop")

    victim = eng.process(sleeper())
    eng.process(killer(victim))
    eng.run()
    # the abandoned 10 s timeout popped at t=10 without resuming anyone
    assert log == [("interrupted", "stop", 3.0), ("woke", 23.0)]


def test_interrupt_while_waiting_on_a_finished_process():
    """The wait on an already-finished process is an URGENT proxy queued
    before the kick, so the value arrives first and the interrupt lands
    on the next wait."""
    eng = Engine()
    log = []

    def quick():
        yield eng.timeout(1.0)
        return "done"

    def waiter(child):
        yield eng.timeout(2.0)
        log.append(("value", (yield child), eng.now))
        try:
            yield eng.timeout(5.0)
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, eng.now))

    def killer(victim):
        yield eng.timeout(2.0)
        victim.interrupt("late")

    child = eng.process(quick())
    victim = eng.process(waiter(child))
    eng.process(killer(victim))
    eng.run()
    assert log == [("value", "done", 2.0), ("interrupted", "late", 2.0)]


def test_two_interrupts_in_one_instant_arrive_in_order():
    eng = Engine()
    causes = []

    def sleeper():
        while len(causes) < 2:
            try:
                yield eng.timeout(10.0)
            except Interrupt as exc:
                causes.append((exc.cause, eng.now))

    victim = eng.process(sleeper())
    eng.run(until=1.0)
    victim.interrupt("first")
    victim.interrupt("second")
    eng.run()
    assert causes == [("first", 1.0), ("second", 1.0)]
    assert victim.triggered and victim.ok


def test_uncaught_interrupt_fails_the_process_and_a_dead_one_ignores_more():
    eng = Engine()

    def sleeper():
        yield eng.timeout(10.0)

    victim = eng.process(sleeper())
    eng.run(until=1.0)
    victim.interrupt("fatal")
    victim.interrupt("already queued")  # delivered to a corpse: dropped
    eng.run()
    assert victim.triggered and not victim.ok
    assert isinstance(victim.value, Interrupt) and victim.value.cause == "fatal"
    victim.interrupt("too late")
    assert eng.peek() == float("inf")  # not even a kick was queued


# a process nobody awaits ends without an event -----------------------------

def _child_and_waiters(fails):
    """A child ending at t=1; waiters registered before the end, in the
    same instant after it, and at a later instant."""
    eng = Engine()
    got = []

    def child():
        yield eng.timeout(1.0)
        if fails:
            raise KeyError("boom")
        return "v"

    def waiter(tag, delay, proc):
        yield eng.timeout(delay)
        try:
            got.append((tag, (yield proc), eng.now))
        except KeyError as exc:
            got.append((tag, exc.args[0], eng.now))

    return eng, got, child, waiter


@pytest.mark.parametrize("fails", [False, True])
def test_waiters_before_with_and_after_an_unawaited_end_all_get_the_outcome(fails):
    expected = "boom" if fails else "v"
    # awaited before it ends: the end is an event, as ever
    eng, got, child, waiter = _child_and_waiters(fails)
    proc = eng.process(child())
    eng.process(waiter("before", 0.5, proc))
    eng.run()
    assert got == [("before", expected, 1.0)]
    # nobody waits when it ends; waiters come in the same instant and later
    eng, got, child, waiter = _child_and_waiters(fails)
    proc = eng.process(child())  # created first: ends before the t=1 waiter runs
    eng.process(waiter("same instant", 1.0, proc))
    eng.process(waiter("later", 4.0, proc))
    eng.run()
    assert got == [("same instant", expected, 1.0), ("later", expected, 4.0)]
    assert proc.triggered and proc.ok is (not fails)


def test_run_until_process_on_an_unawaited_process_returns_its_value():
    eng = Engine()

    def body():
        yield eng.timeout(2.0)
        return 42

    assert eng.run_until_process(eng.process(body())) == 42
    assert eng.now == 2.0 and eng.peek() == float("inf")  # no end-event left behind

    def bad():
        yield eng.timeout(1.0)
        raise KeyError("boom")

    with pytest.raises(KeyError, match="boom"):
        eng.run_until_process(eng.process(bad()))


def test_fire_and_forget_processes_cost_two_pops_each():
    """Start and one timeout: the end of a process nobody awaits is not
    an event.  An awaited one still costs its end-event."""
    from repro.check import ScheduleTrace

    def body(eng):
        yield eng.timeout(1.0)

    n = 25
    eng = Engine()
    trace = eng.schedule_trace = ScheduleTrace()
    for _ in range(n):
        eng.process(body(eng))
    eng.run()
    assert trace.count == eng._seq == 2 * n

    eng = Engine()
    trace = eng.schedule_trace = ScheduleTrace()
    eng.all_of([eng.process(body(eng)) for _ in range(n)])
    eng.run()
    assert trace.count == 3 * n + 1  # + the all_of itself
