"""Recovery-protocol tests: drain timeout, failover, commit, retries."""

import numpy as np
import pytest

from tests.helpers import FIELD_GROUP, field_step
from repro.adios import BPWriter, SyncMPIIO
from repro.check import Checker
from repro.core import DrainTimeout, PreDatA
from repro.experiments.chaos import run_once
from repro.faults import FaultInjector, FetchTimeout, NoLiveStagers, ResilienceConfig
from repro.flow import FlowConfig
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World
from repro.obs import Observability
from repro.operators import ArrayMergeOperator
from repro.sim import Engine


def _resilient_pipeline(
    *,
    nprocs=4,
    nstaging_nodes=2,
    nsteps=2,
    local_n=4,
    scale=200.0,
    io_interval=1.0,
    resilience=None,
    start_app=True,
    flow=None,
):
    eng = Engine()
    machine = Machine(eng, nprocs, nstaging_nodes, spec=TESTING_TINY)
    writer = BPWriter("merged.bp", FIELD_GROUP)
    op = ArrayMergeOperator(["rho"], out_group=FIELD_GROUP, writer=writer)
    predata = PreDatA(
        eng,
        machine,
        FIELD_GROUP,
        [op],
        ncompute_procs=nprocs,
        nsteps=nsteps,
        volume_scale=scale,
        resilience=resilience or ResilienceConfig(),
        flow=flow,
    )
    predata.start()
    app = World(
        eng,
        machine.network,
        list(range(nprocs)),
        name="app",
        node_lookup=machine.node,
        wire_scale=scale,
    )

    def app_main(comm):
        for s in range(nsteps):
            step = field_step(comm.rank, nprocs, local_n, step=s, scale=scale)
            yield from predata.transport.write_step(comm, step)
            yield from comm.sleep(io_interval)

    if start_app:
        app.spawn(app_main)
    return eng, machine, predata, writer


# ------------------------------------------------- drain with a timeout
def test_drain_timeout_names_the_undrained_steps():
    eng, _machine, predata, _w = _resilient_pipeline(start_app=False)
    proc = eng.process(predata.drain(timeout=5.0))
    with pytest.raises(DrainTimeout) as err:
        eng.run_until_process(proc)
    msg = str(err.value)
    assert "timed out after 5" in msg
    assert "step 0: waiting on staging ranks [0, 1, 2, 3]" in msg
    assert "step 1" in msg


def test_drain_timeout_mid_step_reports_queues_inflight_bytes_and_counters():
    """A drain that gives up while step 0 is mid-fetch and step 1's
    requests already wait in the mailboxes names all of it: queue depth,
    pool-held bytes in flight, the trace counters and the flow state."""
    eng, _machine, predata, _w = _resilient_pipeline(
        nprocs=8, nstaging_nodes=1, scale=5e5,  # 256 MB chunks: seconds per fetch
        flow=FlowConfig(credit_bytes=1e12),
    )
    Observability().bind(eng, label="drain")
    proc = eng.process(predata.drain(timeout=1.8))
    with pytest.raises(DrainTimeout) as err:
        eng.run_until_process(proc)
    msg = str(err.value)
    assert "step 0: waiting on staging ranks [0, 1]; step 1: waiting" in msg
    for rank in (0, 1):
        assert (
            f"rank {rank}: 4 queued request(s) [1.02e+09 B], 2.56e+08 B in flight"
            in msg
        )
    assert "obs: 1.54e+09 B fetched, 0 fetch retries" in msg
    assert "flow: pools [node8: 5.12e+08/" in msg


def test_drain_with_timeout_completes_normally():
    eng, _machine, predata, _w = _resilient_pipeline()
    proc = eng.process(predata.drain(timeout=1000.0))
    eng.run_until_process(proc)  # must not raise
    assert sorted(predata.service.commit_times) == [0, 1]


def test_drain_timeout_validation_and_errors():
    eng, _machine, predata, _w = _resilient_pipeline(start_app=False)
    fresh = PreDatA.__new__(PreDatA)  # drain before start is an error
    fresh.service = predata.service.__class__.__new__(predata.service.__class__)
    fresh.service._procs = []
    with pytest.raises(RuntimeError):
        next(iter(fresh.service.drain()))


# ----------------------------------------------------- failover routing
def test_failover_routing_is_deterministic_and_total():
    _eng, _machine, predata, _w = _resilient_pipeline(
        nprocs=4, nstaging_nodes=2, start_app=False
    )
    client = predata.client
    assert client.nstaging == 4
    before = [client.route(r) for r in range(4)]
    assert before == [0, 1, 2, 3]
    client.mark_stager_failed(1)
    after = [client.route(r) for r in range(4)]
    assert after == [client.route(r) for r in range(4)]  # stable
    assert 1 not in after
    assert client.alive_stagers == [0, 2, 3]
    # survivors partition the compute ranks exactly
    owned = [c for s in client.alive_stagers for c in client.compute_ranks_of(s)]
    assert sorted(owned) == [0, 1, 2, 3]
    for s in (0, 2, 3):
        client.mark_stager_failed(s)
    assert not client.has_live_stagers
    with pytest.raises(NoLiveStagers):
        client.route(0)


# ------------------------------------------------ commit-barrier lifecycle
def test_buffers_release_only_at_commit():
    eng, _machine, predata, _w = _resilient_pipeline(nsteps=2)
    eng.run()
    # every step committed in lockstep, every buffer released
    assert sorted(predata.service.commit_times) == [0, 1]
    assert predata.client.outstanding_buffers == 0
    assert predata.client._requests_log == {}
    assert predata.service.restarts == 0


# ----------------------------------------------------- fetch retry path
def test_dropped_fetches_are_retried_until_success():
    eng, machine, predata, writer = _resilient_pipeline(
        resilience=ResilienceConfig(
            fetch_timeout=5.0, fetch_retry_backoff=0.01, fetch_max_attempts=4
        )
    )
    inj = FaultInjector(eng, machine, seed=0)
    inj.arm(predata.client)
    inj.drop_fetch(0, 0, attempts=2, delay=0.01)
    inj.slow_fetch(1, 1, delay=0.2)
    eng.run()
    assert predata.service.fetch_retries >= 2
    assert sorted(predata.service.commit_times) == [0, 1]
    merged = writer.close()
    for s in (0, 1):
        arr = merged.read_global_array("rho", s)
        assert arr.shape == (16, 4, 4)
    kinds = [k for k, _, _ in inj.injected]
    assert kinds.count("fetch_drop") == 2 and "fetch_slow" in kinds


def test_exhausted_fetch_retries_end_the_run_in_fetch_timeout():
    """Every attempt for one chunk dropped: the retry budget's final
    ``raise FetchTimeout`` must reach whoever drains the pipeline (it
    used to die inside the fetcher child, wedging the rank until a
    drain timeout), leaving no fetch process or pool ticket behind."""
    eng, machine, predata, _w = _resilient_pipeline(
        resilience=ResilienceConfig(
            fetch_timeout=1.0, fetch_retry_backoff=0.01, fetch_max_attempts=3
        ),
        flow=FlowConfig(pool_bytes=1e9),
    )
    inj = FaultInjector(eng, machine, seed=0)
    inj.arm(predata.client)
    inj.drop_fetch(1, 0, attempts=3, delay=0.01)
    with pytest.raises(FetchTimeout) as err:
        eng.run_until_process(eng.process(predata.drain()))
    exc = err.value
    assert (exc.compute_rank, exc.step, exc.attempts) == (1, 0, 3)
    assert str(exc) == "fetch of (compute 1, step 0) failed after 3 attempts"
    # the starved rank failed with the timeout and dropped its step scratch
    failed = [p for p in predata.service._procs if p.triggered and not p.ok]
    assert [p.value for p in failed] == [exc]
    assert predata.client.route(1) not in predata.service._inflight
    # no fetch attempt outlives it, and no chunk is parked in a pool
    eng.run(until=eng.now + 10.0)
    assert [k for k, _, _ in inj.injected] == ["fetch_drop"] * 3
    assert predata.service.fetch_retries == 3
    assert all(p.used == 0.0 and not p._tickets for p in predata.flow.pools.values())


# ------------------------------------------- end-to-end crash recovery
def test_staging_crash_recovers_with_zero_loss():
    r = run_once(
        logical_ranks=64,
        rep_ranks=4,
        nsteps=3,
        seed=3,
    )
    assert r.complete, f"missing steps: {r.missing_steps}"
    assert r.restarts >= 1
    assert r.detection_seconds is not None and r.detection_seconds > 0
    # the interrupted step was re-executed and committed after the crash
    assert r.recovery_seconds is not None and r.recovery_seconds > 0
    # survivors took over the dead node's compute clients
    assert not r.predata.client.has_live_stagers or r.predata.client.alive_stagers
    assert all(
        s in r.predata.service.commit_times for s in range(r.nsteps)
    )


def test_all_stagers_dead_degrades_and_salvages():
    # 4 steps so at least one dump happens *after* detection flips the
    # client into degraded mode (detection takes ~heartbeat timeout)
    r = run_once(
        logical_ranks=64,
        rep_ranks=4,
        nsteps=4,
        nstaging_nodes=1,
        seed=3,
    )
    assert r.complete, f"missing steps: {r.missing_steps}"
    assert r.predata.client.degraded
    assert r.degraded_steps > 0  # later dumps went through the fallback
    assert r.fallback_file is not None
    # salvaged + degraded steps really live in the fallback BP file
    fb_steps = sorted({pg.step for pg in r.fallback_file.pgs})
    assert fb_steps, "fallback file is empty"
    for s in fb_steps:
        arr = r.fallback_file.read_global_array("rho", s)
        assert np.isfinite(arr).all()


def _single_stager_killed_early(nprocs=2, scale=2e6):
    """One staging node, crashed at t=0.1 and declared dead at t=2.5."""
    eng = Engine()
    chk = Checker().bind(eng)
    machine = Machine(eng, nprocs, 1, spec=TESTING_TINY)
    writer = BPWriter("merged.bp", FIELD_GROUP)
    op = ArrayMergeOperator(["rho"], out_group=FIELD_GROUP, writer=writer)
    fallback = SyncMPIIO(machine.filesystem)
    predata = PreDatA(
        eng, machine, FIELD_GROUP, [op], ncompute_procs=nprocs, volume_scale=scale,
        resilience=ResilienceConfig(), fallback_io=fallback,
    )
    predata.start()
    FaultInjector(eng, machine, seed=1).crash_staging_node(at=0.1)
    app = World(
        eng, machine.network, list(range(nprocs)), name="app",
        node_lookup=machine.node, wire_scale=scale,
    )
    return eng, chk, predata, fallback, app


def test_last_stager_declared_dead_mid_write_hands_the_dump_to_the_fallback():
    """The write starts while the (already dead) stager still counts as
    alive, and reaches its request stage after detection: no stager is
    left to route to, so the packed buffer goes straight to the
    controller's fallback replay."""
    eng, chk, predata, fallback, app = _single_stager_killed_early()
    times = {}

    def app_main(comm):
        yield from comm.sleep(2.4)  # detection lands at 2.5, mid-pack
        step = field_step(comm.rank, 2, 4, step=0, scale=2e6)
        assert not predata.client.degraded
        yield from predata.transport.write_step(comm, step)
        times[comm.rank] = eng.now

    app.spawn(app_main)
    eng.run()
    timeline = [(kind, t) for kind, t, _ in predata.controller.timeline]
    assert ("detected", 2.5) in timeline
    assert all(t > 2.5 for t in times.values())  # request stage came after
    replayed = [d for kind, _t, d in predata.controller.timeline if kind == "replayed"]
    assert sorted(replayed) == [(0, 0), (1, 0)]
    assert predata.transport.degraded_steps == 0  # not the degraded-write path
    fallback.finalize()
    got = fallback.file(FIELD_GROUP.name).read_global_array("rho", 0)
    assert np.array_equal(got, np.arange(8 * 4 * 4, dtype=float).reshape(8, 4, 4))
    assert predata.client.outstanding_buffers == 0
    chk.verify(predata)


def test_skip_notice_with_no_stager_left_is_dropped_without_routing():
    eng, _chk, predata, _fallback, app = _single_stager_killed_early()
    elapsed = {}

    def app_main(comm):
        yield from comm.sleep(3.0)  # past detection: nobody to notify
        t0 = eng.now
        yield from predata.client.skip_step(comm, 0)  # must not raise NoLiveStagers
        elapsed[comm.rank] = eng.now - t0

    app.spawn(app_main)
    eng.run()
    assert not predata.client.has_live_stagers
    assert elapsed == {0: 0.0, 1: 0.0}  # no wire hop either
    # nothing will ever commit that notice, so it must not be logged
    assert predata.client._requests_log == {}
