"""Flow-control subsystem: pool, credits, pressure, and end-to-end."""

import hashlib

import numpy as np
import pytest

from tests.helpers import PARTICLE_GROUP, run_staging_pipeline
from repro.check import Checker
from repro.core import PreDatA
from repro.flow import (
    BufferPool,
    CreditBank,
    FlowConfig,
    FlowControl,
    PressureController,
)
from repro.machine import Machine, TESTING_TINY
from repro.machine.node import MemoryError_, Node, NodeConfig
from repro.obs import Observability
from repro.operators import SampleSortOperator
from repro.sim import Engine, Interrupt


def _engine_machine(nstaging=1):
    eng = Engine()
    machine = Machine(eng, 4, nstaging, spec=TESTING_TINY, fs_interference=False)
    return eng, machine


def _pool(eng, machine, **cfg_kwargs):
    node = machine.node(machine.staging_node_ids[0])
    return BufferPool(eng, node, machine.filesystem, FlowConfig(**cfg_kwargs))


def results_fingerprint(predata):
    """Digest of every operator result (byte-identity comparisons)."""
    h = hashlib.sha256()
    for op, by_step in sorted(predata.service.results.items()):
        for s, by_rank in sorted(by_step.items()):
            for r, v in sorted(by_rank.items()):
                h.update(f"{op}/{s}/{r}".encode())
                h.update(
                    v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode()
                )
    return h.hexdigest()


# --------------------------------------------------------------- FlowConfig
def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(high_watermark=0.5, low_watermark=0.8)
    with pytest.raises(ValueError):
        FlowConfig(pool_bytes=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(codel_target=0.0)
    FlowConfig()  # defaults valid


# --------------------------------------------------------------- BufferPool
def test_pool_acquire_release_roundtrip():
    eng, machine = _engine_machine()
    pool = _pool(eng, machine, pool_bytes=1000.0)
    out = {}

    def proc():
        t = yield from pool.acquire("a", 600.0)
        out["used_after_acquire"] = pool.used
        pool.release(t)
        out["used_after_release"] = pool.used

    eng.process(proc())
    eng.run()
    assert out["used_after_acquire"] == 600.0
    assert out["used_after_release"] == 0.0
    assert pool.peak_bytes == 600.0
    # node ledger mirrored the charge and drained back to zero
    assert pool.node.memory_used == 0.0


def test_pool_acquire_blocks_until_release_fifo():
    eng, machine = _engine_machine()
    pool = _pool(eng, machine, pool_bytes=1000.0, spill_enabled=False)
    order = []

    def holder():
        t = yield from pool.acquire("big", 900.0)
        yield eng.timeout(5.0)
        pool.release(t)

    def waiter(name, delay):
        yield eng.timeout(delay)
        # 600 B each: the two waiters cannot co-reside in a 1000 B pool
        t = yield from pool.acquire(name, 600.0)
        order.append((name, eng.now))
        yield eng.timeout(1.0)
        pool.release(t)

    eng.process(holder())
    eng.process(waiter("first", 0.5))
    eng.process(waiter("second", 1.0))
    eng.run()
    # FIFO: first in, first granted; the second only after first's release
    assert [n for n, _ in order] == ["first", "second"]
    assert order[0][1] == pytest.approx(5.0)
    assert order[1][1] == pytest.approx(6.0)
    assert pool.waits == 2 and pool.wait_seconds > 0


def test_pool_oversized_single_grant_does_not_deadlock():
    eng, machine = _engine_machine()
    pool = _pool(eng, machine, pool_bytes=100.0, spill_enabled=False)
    done = []

    def proc():
        t = yield from pool.acquire("huge", 500.0)  # > pool, < node memory
        done.append(pool.used)
        pool.release(t)

    eng.process(proc())
    eng.run()
    assert done == [500.0]
    assert pool.used == 0.0


def test_pool_chunk_larger_than_node_memory_still_raises():
    eng, machine = _engine_machine()
    pool = _pool(eng, machine)
    node_mem = pool.node.config.memory_bytes

    def proc():
        yield from pool.acquire("impossible", node_mem * 2)

    p = eng.process(proc())
    with pytest.raises(MemoryError_):
        eng.run_until_process(p)


def test_pool_spills_cold_chunks_and_unspills_on_demand():
    eng, machine = _engine_machine()
    pool = _pool(eng, machine, pool_bytes=1000.0)
    seen = {}

    def producer():
        tickets = []
        for i in range(4):  # 4 x 400 B into a 1000 B pool
            t = yield from pool.acquire(f"c{i}", 400.0)
            pool.unpin(t)  # parked: spillable
            tickets.append(t)
        seen["tickets"] = tickets

    def consumer():
        yield eng.timeout(30.0)  # let spills happen
        seen["spills_before_consume"] = pool.spills
        for t in seen["tickets"]:
            yield from pool.ensure_resident(t)
            assert t.state == "resident"
            pool.release(t)

    eng.process(producer())
    eng.process(consumer())
    eng.run()
    assert seen["spills_before_consume"] >= 1
    assert pool.unspills >= 1
    assert pool.unspill_bytes == pool.unspills * 400.0
    assert pool.used == 0.0
    assert pool.node.memory_used == 0.0
    # spill I/O really went through the machine file system
    assert machine.filesystem.bytes_written >= pool.spill_bytes
    assert machine.filesystem.bytes_read >= pool.unspill_bytes


def test_pool_release_is_idempotent_and_discard_safe():
    eng, machine = _engine_machine()
    pool = _pool(eng, machine, pool_bytes=1000.0)

    def proc():
        t = yield from pool.acquire("x", 300.0)
        pool.release(t)
        pool.release(t)  # double release is a no-op
        pool.discard(t)

    eng.process(proc())
    eng.run()
    assert pool.used == 0.0


# --------------------------------------------------------------- CreditBank
def test_credit_bank_grant_queue_release():
    eng = Engine()
    bank = CreditBank(eng, 0, 1000.0, FlowConfig())
    got = []

    def writer(key, nbytes, delay):
        yield eng.timeout(delay)
        granted = yield from bank.request(key, nbytes)
        got.append((key, granted, eng.now))
        yield eng.timeout(2.0)
        bank.release(key)

    # same source (compute rank 1) so the progress rule only covers the
    # first request; the rest must wait for the budget
    eng.process(writer((1, 0), 800.0, 0.0))
    eng.process(writer((1, 1), 800.0, 0.1))
    eng.process(writer((1, 2), 800.0, 0.2))
    eng.run()
    assert [k for k, g, _ in got] == [(1, 0), (1, 1), (1, 2)]
    assert all(g for _, g, _ in got)
    # second waited for the first release, third for the second
    assert got[1][2] == pytest.approx(2.0)
    assert got[2][2] == pytest.approx(4.0)
    assert bank.outstanding == 0.0
    assert bank.mean_sojourn() > 0.0


def test_credit_bank_progress_rule_admits_fresh_sources():
    """A source with nothing outstanding is never blocked (gather barrier)."""
    eng = Engine()
    bank = CreditBank(eng, 0, 100.0, FlowConfig())
    granted_at = {}

    def writer(src):
        ok = yield from bank.request((src, 0), 80.0)
        assert ok
        granted_at[src] = eng.now

    for src in range(4):  # 4 x 80 B against a 100 B budget
        eng.process(writer(src))
    eng.run()
    # every distinct source admitted immediately despite the tiny budget
    assert all(t == 0.0 for t in granted_at.values())
    assert bank.outstanding == 320.0


def test_credit_bank_release_idempotent_and_revoke_all():
    eng = Engine()
    bank = CreditBank(eng, 0, 1000.0, FlowConfig())

    def proc():
        yield from bank.request((0, 0), 400.0)
        yield from bank.request((1, 0), 300.0)

    eng.process(proc())
    eng.run()
    bank.release((0, 0))
    bank.release((0, 0))  # idempotent
    assert bank.outstanding == 300.0
    moved = bank.revoke_all()
    assert moved == {(1, 0): 300.0}
    assert bank.outstanding == 0.0


def test_credit_bank_codel_degrades_overwaiting_writes():
    eng = Engine()
    cfg = FlowConfig(codel_target=0.5)
    bank = CreditBank(eng, 0, 100.0, cfg)
    outcomes = {}

    def holder():
        yield from bank.request((9, 0), 100.0)
        yield eng.timeout(10.0)  # hold the whole budget for a long time
        bank.release((9, 0))

    def second(key, delay):
        yield eng.timeout(delay)
        ok = yield from bank.request(key, 100.0, can_degrade=True)
        outcomes[key] = (ok, eng.now)

    eng.process(holder())
    # same source twice: first of the pair is admitted by the progress
    # rule; the second must queue and times out CoDel-style
    eng.process(second((9, 1), 0.1))
    eng.process(second((9, 2), 0.2))
    eng.run()
    assert outcomes[(9, 1)][0] is False  # degraded after ~codel_target
    assert outcomes[(9, 1)][1] == pytest.approx(0.1 + 0.5)
    # both queued writes overwait their allowance and degrade
    assert outcomes[(9, 2)][0] is False
    assert bank.rejections == 2
    # no waiter outlives its (at most target-sized) allowance
    assert outcomes[(9, 2)][1] - 0.2 <= 0.5 + 1e-9


def test_credit_bank_waiter_interrupted_as_it_is_granted_returns_the_credits():
    """A waiter abandoned in the instant its grant came through must
    hand the credits back, or the budget leaks."""
    eng = Engine()
    bank = CreditBank(eng, 0, 100.0, FlowConfig())
    outcome = []

    def waiter():
        yield from bank.request((0, 0), 60.0)  # fresh source: granted at once
        try:
            yield from bank.request((0, 1), 60.0)  # same source, no room: queues
            outcome.append("granted")
        except Interrupt:
            outcome.append("interrupted")

    proc = eng.process(waiter())

    def abandon():
        yield eng.timeout(1.0)
        bank.release((0, 0))  # the pump grants (0, 1) to the waiter...
        proc.interrupt("abandoned")  # ...which gives up in the same instant

    eng.process(abandon())
    eng.run()
    assert outcome == ["interrupted"]
    assert bank.grants == 2  # the second grant did go through
    assert bank.outstanding == 0.0  # and came back


def test_credit_bank_failover_transfer():
    eng, machine = _engine_machine(nstaging=2)
    fc = FlowControl(
        eng,
        machine,
        FlowConfig(credit_bytes=1000.0),
        staging_rank_nodes=[machine.staging_node_ids[0], machine.staging_node_ids[1]],
    )

    def proc():
        ok = yield from fc.request_credits(0, (3, 0), 700.0)
        assert ok

    eng.process(proc())
    eng.run()
    assert fc.banks[0].outstanding == 700.0
    fc.on_stager_failed(0, lambda compute_rank: 1)
    assert fc.banks[0].outstanding == 0.0
    assert fc.banks[1].outstanding == 700.0
    assert fc.banks[1].forced == 1
    # release through the facade finds the adopted grant
    fc.release_credits((3, 0))
    assert fc.banks[1].outstanding == 0.0


# --------------------------------------------------------- PressureController
def test_pressure_throttles_above_low_watermark():
    eng, machine = _engine_machine()
    pool = _pool(eng, machine, pool_bytes=1000.0, spill_enabled=False)
    ctl = PressureController(
        eng, {pool.node.id: pool}, FlowConfig(), throttle_rate=1000.0
    )
    held = {}

    def proc():
        t = yield from pool.acquire("warm", 700.0)  # between low and high
        held["sev"] = ctl.severity(pool.node.id)
        d = yield from ctl.admit(pool.node.id, 100.0)
        held["delay"] = d
        pool.release(t)
        d2 = yield from ctl.admit(pool.node.id, 100.0)
        held["delay_empty"] = d2

    eng.process(proc())
    eng.run()
    assert 0.0 < held["sev"] < 1.0
    assert held["delay"] > 0.0
    assert held["delay_empty"] == 0.0
    assert ctl.throttled_fetches == 1


def test_pressure_blocks_at_high_watermark_with_max_block_bound():
    eng, machine = _engine_machine()
    pool = _pool(eng, machine, pool_bytes=1000.0, spill_enabled=False)
    ctl = PressureController(
        eng, {pool.node.id: pool}, FlowConfig(max_block=2.0), throttle_rate=1e9
    )
    held = {}

    def holder():
        t = yield from pool.acquire("full", 950.0)  # above high (850)
        yield eng.timeout(10.0)
        pool.release(t)

    def fetcher():
        yield eng.timeout(0.1)
        d = yield from ctl.admit(pool.node.id, 100.0)
        held["delay"] = d
        held["t"] = eng.now

    eng.process(holder())
    eng.process(fetcher())
    eng.run()
    # blocked, but released by the anti-starvation bound (not the 10 s hold)
    assert held["t"] == pytest.approx(0.1 + 2.0)
    assert ctl.blocked_fetches == 1


def test_pressure_reference_rate_is_the_clients_pacing_rate():
    """``PreDatA(flow=, fetch_rate_cap=)``: throttling stretches a fetch
    relative to the rate it is paced at, memory bandwidth only if unpaced."""

    def throttle_rate(**kwargs):
        eng, machine = _engine_machine()
        predata = PreDatA(
            eng, machine, PARTICLE_GROUP, [], ncompute_procs=4,
            flow=FlowConfig(), **kwargs,
        )
        assert predata.scheduler.pressure is predata.flow.pressure
        return predata.flow.pressure.throttle_rate, machine

    rate, _ = throttle_rate(fetch_rate_cap=0.2e9)
    assert rate == 0.2e9
    rate, machine = throttle_rate()
    assert rate == machine.spec.node.memory_bandwidth


# ------------------------------------------------------------- Node waitable
def test_node_request_memory_waits_and_pumps_fifo():
    eng = Engine()
    node = Node(eng, 0, NodeConfig(memory_bytes=100.0))
    got = []

    def holder():
        node.allocate(80.0)
        yield eng.timeout(3.0)
        node.free(80.0)

    def waiter(name, need, delay):
        yield eng.timeout(delay)
        ev = node.request_memory(need)
        yield ev
        got.append((name, eng.now))
        node.free(need)

    eng.process(holder())
    eng.process(waiter("a", 50.0, 0.5))
    eng.process(waiter("b", 50.0, 1.0))
    eng.run()
    assert [n for n, _ in got] == ["a", "b"]
    assert got[0][1] == pytest.approx(3.0)
    assert node.memory_used == 0.0


def test_node_request_memory_never_fitting_raises():
    eng = Engine()
    node = Node(eng, 0, NodeConfig(memory_bytes=100.0))
    with pytest.raises(MemoryError_):
        node.request_memory(101.0)


def test_node_cancel_memory_dequeues_or_refunds():
    eng = Engine()
    node = Node(eng, 0, NodeConfig(memory_bytes=100.0))
    node.allocate(100.0)
    ev = node.request_memory(10.0)
    assert not ev.triggered
    node.cancel_memory(ev, 10.0)
    node.free(100.0)
    assert node.memory_used == 0.0
    ev2 = node.request_memory(60.0)
    assert ev2.triggered  # granted immediately
    node.cancel_memory(ev2, 60.0)  # refund path
    assert node.memory_used == 0.0


def test_node_free_relative_tolerance_accepts_float_drift():
    """Regression: huge buffers freed along a different arithmetic path.

    Summing a big chunk size six times differs from ``6 * size`` by
    ~1e-4 B at the 1e12 scale — far beyond the old absolute 1e-6
    tolerance, but a legitimate rounding artefact that must not raise.
    """
    eng = Engine()
    node = Node(eng, 0, NodeConfig(memory_bytes=4e12))
    size = 1e12 / 6.0
    for _ in range(6):
        node.allocate(size)
    drift = 1e12 - node.memory_used  # freeing MORE than the ledger holds
    assert drift > 1e-6  # the old absolute tolerance would raise
    node.free(1e12)  # product-computed total: must be accepted
    assert node.memory_used == pytest.approx(0.0, abs=1.0)
    # genuinely freeing more than allocated still raises
    node.allocate(10.0)
    with pytest.raises(RuntimeError):
        node.free(20.0)


# ------------------------------------------------------------- end to end
CHUNK = 200 * 8 * 8 * 20.0  # rows x attrs x 8 B x volume_scale


def _run(flow=None, mem=None, nsteps=2, **kwargs):
    return run_staging_pipeline(
        [SampleSortOperator("electrons", key_column=0)],
        nprocs=16,
        nsteps=nsteps,
        rows=200,
        scale=20.0,
        procs_per_staging_node=4,
        fetch_pipeline_depth=8,
        flow=flow,
        node_memory_bytes=mem,
        **kwargs,
    )


def test_flow_disabled_is_structurally_absent():
    eng, machine, predata, visible = _run(flow=None)
    assert predata.flow is None
    assert predata.client.flow is None
    assert predata.scheduler.pressure is None


def test_flow_enabled_uncapped_results_and_timing_identical():
    eng0, _m0, pd0, vis0 = _run(flow=None)
    eng1, _m1, pd1, vis1 = _run(flow=FlowConfig())
    assert results_fingerprint(pd0) == results_fingerprint(pd1)
    assert eng0.now == eng1.now
    assert vis0 == vis1


def test_capped_staging_memory_crashes_without_flow_but_completes_with():
    mem = 2.5 * CHUNK  # uncapped peak is 4 concurrent chunks
    # without flow a fetch proc dies on MemoryError_ (swallowed by
    # catch_errors) and the service wedges: no results, live procs
    _eng, _m, pd_crash, _vis = _run(flow=None, mem=mem)
    assert all(not by_step for by_step in pd_crash.service.results.values())
    assert any(
        p.is_alive for p in pd_crash.service._procs
    ), "expected staging processes to wedge after the MemoryError_"
    # with flow the same configuration completes every step...
    eng_f, m_f, pd_f, _vis_f = _run(flow=FlowConfig(), mem=mem)
    for by_step in pd_f.service.results.values():
        assert sorted(by_step) == [0, 1]
    # ...inside the memory cap...
    for nid in m_f.staging_node_ids:
        assert m_f.node(nid).memory_high_water <= mem
    # ...with results byte-identical to the uncapped run
    eng0, _m0, pd0, _vis0 = _run(flow=None)
    assert results_fingerprint(pd0) == results_fingerprint(pd_f)
    # and backpressure genuinely engaged
    pool = list(pd_f.flow.pools.values())[0]
    assert pool.waits > 0


def test_capped_flow_run_is_deterministic():
    mem = 2.5 * CHUNK
    runs = [_run(flow=FlowConfig(), mem=mem) for _ in range(2)]
    (eng_a, _ma, pd_a, vis_a), (eng_b, _mb, pd_b, vis_b) = runs
    assert eng_a.now == eng_b.now
    assert vis_a == vis_b
    assert results_fingerprint(pd_a) == results_fingerprint(pd_b)
    pa, pb = (list(pd.flow.pools.values())[0] for pd in (pd_a, pd_b))
    assert (pa.spills, pa.waits, pa.wait_seconds) == (
        pb.spills,
        pb.waits,
        pb.wait_seconds,
    )


def test_transport_degrades_write_on_codel_overflow():
    """CoDel target + tight credits: over-waiting writes take the sync path.

    Dumps are back to back, so every rank asks for step 1's credits
    while step 0's are still out (a source with nothing outstanding is
    always admitted); one chunk's worth of credits per staging rank
    cannot cover that, the wait outlives the 1 ms target, and all 16
    step-1 dumps overflow to the synchronous fallback.
    """
    obs = Observability()
    chk = Checker()
    flow = FlowConfig(credit_bytes=CHUNK, codel_target=1e-3)
    eng, machine, predata, visible = _run(
        flow=flow, nsteps=3, io_interval=0.0, obs=obs, check=chk
    )
    transport = predata.transport
    assert transport.overflow_steps == transport.degraded_steps == 16
    assert predata.flow.rejections() == 16
    # the stagers were alive: each overflow sent them a skip notice, so
    # their step rounds stayed matched and step 1 ran no operator phase
    for by_step in predata.service.results.values():
        assert sorted(by_step) == [0, 2]
    # the 16 overflowed dumps landed in the fallback file instead
    predata.fallback_io.finalize()
    fallback = predata.fallback_io.file("particles")
    assert sorted((pg.step, pg.rank) for pg in fallback.pgs) == [
        (1, r) for r in range(16)
    ]
    # every dump is accounted for: 32 staged, 16 degraded, no credit leak
    assert (len(chk.packed), sum(chk.degraded.values())) == (32, 16)
    chk.verify(predata)
    # and the trace shows both sides of the decision
    assert sum(v for _l, v in obs.metrics.labelled("flow_overflow_steps")) == 16
    assert sum(v for _l, v in obs.metrics.labelled("flow_credit_rejections")) == 16
    assert {"credit_reject", "overflow_write"} <= set(obs.tracer.names())


def test_undrained_message_includes_queue_and_inflight_bytes():
    from types import SimpleNamespace

    eng, machine, predata, visible = _run(flow=FlowConfig())
    service = predata.service
    # fabricate a wedged post-mortem state: one queued request and one
    # chunk mid-fetch on staging rank 0
    service.rank_reports.clear()
    service.client.request_box(0).deliver(
        3, 99, SimpleNamespace(logical_nbytes=4096.0)
    )
    service._inflight[0] = {"alloc": 123.0, "tickets": []}
    msg = service._undrained_message(5.0)
    assert "staging drain timed out after 5" in msg
    assert "rank 0: 1 queued request(s) [4.1e+03 B], 123 B in flight" in msg
    # flow enabled: the pressure snapshot is appended
    assert "flow: pools [" in msg
    assert "credits" in msg


# ------------------------------------------- request() == admit() or wait()
def _drive_bank(style, seed, can_degrade, grouped):
    """Seeded request / release / revoke / force-grant traffic on a bank
    (two banks sharing a group when *grouped*); returns everything a
    caller or the stats could tell apart."""
    import random

    from repro.jobs.share import CreditShareGroup

    rng = random.Random(seed)
    eng = Engine()
    cfg = FlowConfig(codel_target=0.3 if can_degrade else None)
    banks = [CreditBank(eng, 0, 1000.0, cfg) for _ in range(2 if grouped else 1)]
    if grouped:
        group = CreditShareGroup(0, 1500.0)
        for i, bank in enumerate(banks):
            group.register(f"tenant{i}", bank)
    log = []

    def acquire(bank, key, nbytes):
        if style == "request":
            return (yield from bank.request(key, nbytes, can_degrade=can_degrade))
        return bank.admit(key, nbytes) or (
            yield from bank.wait(key, nbytes, can_degrade=can_degrade)
        )

    def release_later(bank, key, hold):
        yield eng.timeout(hold)
        bank.release(key)

    def client(b, src, plan):
        # grants are released by a side process, so one source runs ahead
        # of its own releases and has to queue
        bank = banks[b]
        for step, (delay, nbytes, hold, redeliver) in enumerate(plan):
            yield eng.timeout(delay)
            key = (src, step)
            ok = yield from acquire(bank, key, nbytes)
            log.append((b, key, ok, eng.now))
            if ok:
                if redeliver:
                    assert (yield from acquire(bank, key, nbytes)) is True
                eng.process(release_later(bank, key, hold))

    def failover(plan):
        for delay, b, what in plan:
            yield eng.timeout(delay)
            if what == "revoke":
                log.append(("revoked", b, sorted(banks[b].revoke_all()), eng.now))
            else:
                banks[b].force_grant(("adopted", what), 200.0)

    delays = (0.0, 0.0, 0.05, 0.2)
    for b in range(len(banks)):
        for src in range(3):
            plan = [
                (rng.choice(delays), rng.choice((100.0, 300.0, 700.0, 1200.0)),
                 rng.choice((0.1, 0.4, 1.0)), rng.random() < 0.2)
                for _ in range(12)
            ]
            eng.process(client(b, src, plan))
    eng.process(failover([
        (rng.uniform(0.2, 1.5), rng.randrange(len(banks)),
         "revoke" if rng.random() < 0.5 else i)
        for i in range(4)
    ]))
    eng.run()
    stats = [
        (bank.grants, bank.rejections, bank.forced, bank.total_sojourn,
         bank.max_sojourn, bank.outstanding, bank.queued)
        for bank in banks
    ]
    return log, stats, eng.now, eng._seq


@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("can_degrade", [False, True])
def test_request_is_exactly_admit_or_wait(can_degrade, grouped):
    seen = set()
    for seed in range(20):
        whole = _drive_bank("request", seed, can_degrade, grouped)
        halves = _drive_bank("halves", seed, can_degrade, grouped)
        assert whole == halves
        log, stats, _now, _seq = whole
        assert all(queued == 0 for *_rest, queued in stats)
        seen |= {granted for tag, _key, granted, _t in log if tag != "revoked"}
        if any(total_sojourn > 0 for _g, _r, _f, total_sojourn, *_rest in stats):
            seen.add("waited")
        if any(forced for _g, _r, forced, *_rest in stats):
            seen.add("forced")
    # the traffic reaches the branches it is meant to compare
    assert {"waited", "forced", True} <= seen
    assert (False in seen) is can_degrade
