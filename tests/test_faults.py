"""Unit tests for the fault hooks and the deterministic injector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.chaos import fingerprint, run_once
from repro.faults import (
    FailureDetector,
    FaultInjector,
    NodeFailure,
    ResilienceConfig,
)
from repro.machine import Machine, TESTING_TINY
from repro.sim import Engine


def _machine(n_compute=2, n_staging=2):
    eng = Engine()
    return eng, Machine(eng, n_compute, n_staging, spec=TESTING_TINY)


# ------------------------------------------------------- machine hooks
def test_node_fail_kills_compute_and_fires_listeners():
    eng, machine = _machine()
    node = machine.node(0)
    seen = []
    node.add_failure_listener(lambda n: seen.append(n.id))
    assert node.alive
    node.fail()
    node.fail()  # idempotent: listeners fire once
    assert not node.alive and node.failed_at == 0.0
    assert seen == [0]

    def body():
        yield from node.compute(1e6)

    proc = eng.process(body())
    with pytest.raises(NodeFailure):
        eng.run_until_process(proc)


def test_degraded_link_slows_transfer():
    def one(degrade):
        eng, machine = _machine()
        if degrade:
            machine.network.degrade_link(0, 0.0, 100.0, 0.25)

        def body():
            yield from machine.network.transfer(0, 1, 50e6)

        proc = eng.process(body())
        eng.run_until_process(proc)
        return eng.now

    clean, degraded = one(False), one(True)
    assert degraded > 2.0 * clean  # quarter-speed NIC on one endpoint


def test_degrade_link_reaches_nics_created_before_and_after_the_window():
    eng, machine = _machine()
    net = machine.network
    early = net.nic(0)
    assert early.tx.degradation is None and early.rx.degradation is None
    net.degrade_link(0, 0.0, 5.0, 0.5)  # NIC 0 already exists
    net.degrade_link(0, 0.0, 5.0, 0.5)  # overlapping windows multiply
    net.degrade_link(1, 0.0, 5.0, 0.25)  # NIC 1 does not exist yet
    assert net.nic(0) is early
    assert early.tx.effective_rate() == early.rx.effective_rate() == 0.25 * early.tx.rate
    assert net.nic(1).rx.effective_rate() == 0.25 * net.nic(1).rx.rate
    assert net.nic(2).tx.degradation is None  # never named: no hook to call
    eng.run(until=5.0)  # windows are half-open: closed at t=5
    assert early.tx.effective_rate() == early.tx.rate


def test_degrade_link_validates_window_and_factor():
    eng, machine = _machine()
    with pytest.raises(ValueError):
        machine.network.degrade_link(0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        machine.network.degrade_link(0, 0.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        machine.network.degrade_link(0, 5.0, 1.0, 0.5)


def test_filesystem_stall_window_slows_write():
    def one(stall):
        eng, machine = _machine()
        if stall:
            machine.filesystem.stall_window(0.0, 1000.0)

        def body():
            yield from machine.filesystem.write(200e6, nclients=1)

        proc = eng.process(body())
        eng.run_until_process(proc)
        return eng.now

    clean, stalled = one(False), one(True)
    # aggregate pipe clamped to 5 % of peak: 200 MB goes from the
    # client-cap regime (~0.4 s) to 100 MB/s (~2 s)
    assert stalled > 4.0 * clean


# ------------------------------------------------------ fault injector
def test_disabled_injector_schedules_nothing():
    eng, machine = _machine()
    inj = FaultInjector(eng, machine, seed=3, enabled=False)
    node_id = inj.crash_staging_node(at=1.0)
    inj.degrade_link(0, at=0.0, duration=1.0, factor=0.5)
    inj.stall_filesystem(at=0.0, duration=1.0)
    inj.drop_fetch(0, 0)
    inj.slow_fetch(0, 0, delay=1.0)
    inj.random_fetch_faults(drop_prob=0.5)
    assert node_id in machine.staging_node_ids  # plan still reported
    eng.run()
    assert inj.injected == []
    assert all(machine.node(n).alive for n in machine.staging_node_ids)
    assert inj.fetch_fault(0, 0, 0) is None


def test_injector_seed_fixes_the_victim_and_timing():
    picks = []
    for _ in range(3):
        eng, machine = _machine(2, 4)
        inj = FaultInjector(eng, machine, seed=123)
        picks.append(inj.crash_staging_node(at=2.5))
        eng.run()
        assert not machine.node(picks[-1]).alive
        assert inj.injected == [("crash", 2.5, picks[-1])]
    assert len(set(picks)) == 1
    eng, machine = _machine(2, 4)
    other = {FaultInjector(eng, machine, seed=s).crash_staging_node(at=1.0)
             for s in range(8)}
    assert len(other) > 1  # the seed really steers the choice


def test_fetch_fault_plans_consumed_per_attempt():
    eng, machine = _machine()
    inj = FaultInjector(eng, machine, seed=0)
    inj.drop_fetch(3, 1, attempts=2, delay=0.1)
    inj.slow_fetch(3, 1, delay=0.7)
    assert inj.fetch_fault(3, 1, 0) == ("drop", 0.1)
    assert inj.fetch_fault(3, 1, 1) == ("drop", 0.1)
    assert inj.fetch_fault(3, 1, 2) == ("slow", 0.7)
    assert inj.fetch_fault(3, 1, 3) is None
    assert inj.fetch_fault(0, 0, 0) is None  # other keys unaffected
    assert [k for k, _, _ in inj.injected] == [
        "fetch_drop", "fetch_drop", "fetch_slow",
    ]


def test_random_fetch_faults_validate_and_only_hit_first_attempt():
    eng, machine = _machine()
    inj = FaultInjector(eng, machine, seed=1)
    with pytest.raises(ValueError):
        inj.random_fetch_faults(drop_prob=0.7, slow_prob=0.6)
    inj.random_fetch_faults(drop_prob=1.0)
    assert inj.fetch_fault(0, 0, 0) == ("drop", 0.0)
    assert inj.fetch_fault(0, 0, 1) is None  # retries never re-faulted


# ----------------------------------------------------- failure detector
def test_detector_declares_silent_rank_within_bound():
    eng, machine = _machine()
    det = FailureDetector(eng, interval=0.5, timeout=2.0)
    node = machine.node(machine.staging_node_ids[0])
    det.watch(0, lambda: node.alive)
    det.watch(1, lambda: True)
    seen = []
    det.on_failure(lambda ranks: seen.append((eng.now, ranks)))
    det.start()
    det.start()  # idempotent

    def killer():
        yield eng.timeout(3.0)
        node.fail()
        yield eng.timeout(5.0)
        det.stop()

    eng.process(killer())
    eng.run()
    assert det.failed == {0}
    assert seen and seen[0][1] == [0]
    latency = det.detected_at[0] - 3.0
    # >= timeout - interval (last stamp may predate the crash by one
    # beat), <= timeout + 2 sweeps
    assert 2.0 - 0.5 <= latency <= 2.0 + 2 * 0.5
    assert 1 not in det.failed  # no false positive on the live rank


def test_detector_validates_parameters():
    eng, _ = _machine()
    with pytest.raises(ValueError):
        FailureDetector(eng, interval=0.0, timeout=1.0)
    with pytest.raises(ValueError):
        FailureDetector(eng, interval=2.0, timeout=1.0)


def test_resilience_config_validates():
    with pytest.raises(ValueError):
        ResilienceConfig(heartbeat_interval=0.0)
    with pytest.raises(ValueError):
        ResilienceConfig(heartbeat_timeout=0.1, heartbeat_interval=0.5)
    with pytest.raises(ValueError):
        ResilienceConfig(fetch_max_attempts=0)
    with pytest.raises(ValueError):
        ResilienceConfig(min_survivors=-1)


# ----------------------------------------- determinism guard (property)
_SMALL = dict(
    logical_ranks=64,
    rep_ranks=4,
    nsteps=2,
    local_n=4,
    per_logical_rank_mb=0.25,
)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fixed_seed_runs_are_bit_identical(seed):
    a = run_once(seed=seed, **_SMALL)
    b = run_once(seed=seed, **_SMALL)
    assert fingerprint(a) == fingerprint(b)
    assert a.complete and b.complete


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_disabled_injector_is_bit_identical_to_no_injector(seed):
    disabled = run_once(inject=False, seed=seed, **_SMALL)
    absent = run_once(make_injector=False, **_SMALL)
    assert fingerprint(disabled) == fingerprint(absent)
    for s in range(_SMALL["nsteps"]):
        np.testing.assert_array_equal(
            disabled.merged.read_global_array("rho", s),
            absent.merged.read_global_array("rho", s),
        )


# ------------------------------------ corrupt / withheld fetch primitives
def test_corrupt_and_withhold_plans_consumed_per_attempt():
    eng, machine = _machine()
    inj = FaultInjector(eng, machine, seed=0)
    inj.corrupt_chunk(1, 0, attempts=2)
    inj.withhold_fetch(1, 0)
    assert inj.fetch_fault(1, 0, 0) == ("corrupt", 0.0)
    assert inj.fetch_fault(1, 0, 1) == ("corrupt", 0.0)
    assert inj.fetch_fault(1, 0, 2) == ("withhold", 0.0)
    assert inj.fetch_fault(1, 0, 3) is None
    assert [k for k, _, _ in inj.injected] == [
        "fetch_corrupt", "fetch_corrupt", "fetch_withhold",
    ]


def test_corrupt_and_withhold_disabled_are_noops():
    eng, machine = _machine()
    inj = FaultInjector(eng, machine, seed=0, enabled=False)
    inj.corrupt_chunk(0, 0)
    inj.withhold_fetch(0, 0)
    assert inj.fetch_fault(0, 0, 0) is None
    assert inj.injected == []


def test_corrupt_chunk_is_rejected_and_refetched_end_to_end():
    """A corrupted fetch must be detected via the pack-time checksum,
    rejected, and satisfied by a clean re-fetch — zero data loss."""

    class _Harness:
        def attach(self, env, machine, predata, *, nsteps):
            inj = FaultInjector(env, machine, seed=5, enabled=True)
            inj.arm(predata.client)
            inj.corrupt_chunk(0, 0)
            self.injector = inj

    h = _Harness()
    run = run_once(
        inject=False, make_injector=False, scenario_harness=h,
        resilience=ResilienceConfig(fetch_timeout=1.0, fetch_max_attempts=4),
        **_SMALL,
    )
    assert run.complete
    assert run.fetch_retries >= 1
    assert [k for k, _, _ in h.injector.injected] == ["fetch_corrupt"]
    for s in range(_SMALL["nsteps"]):
        expected = run.merged.read_global_array("rho", s)
        assert expected is not None


def test_withheld_fetch_recovers_end_to_end():
    """A silently withheld response must be ended by the per-attempt
    deadline (not an error), then satisfied by a retry."""

    class _Harness:
        def attach(self, env, machine, predata, *, nsteps):
            inj = FaultInjector(env, machine, seed=5, enabled=True)
            inj.arm(predata.client)
            inj.withhold_fetch(0, 0)
            self.injector = inj

    h = _Harness()
    run = run_once(
        inject=False, make_injector=False, scenario_harness=h,
        resilience=ResilienceConfig(fetch_timeout=0.5, fetch_max_attempts=4),
        **_SMALL,
    )
    assert run.complete
    assert run.fetch_retries >= 1
    assert [k for k, _, _ in h.injector.injected] == ["fetch_withhold"]


# --------------------------------- random_fetch_faults determinism guard
class _RandomFaultHarness:
    """Attach hook arming a seeded random fetch-fault storm."""

    def __init__(self, seed: int):
        self.seed = seed
        self.injector = None

    def attach(self, env, machine, predata, *, nsteps):
        inj = FaultInjector(env, machine, seed=self.seed, enabled=True)
        inj.arm(predata.client)
        inj.random_fetch_faults(drop_prob=0.3, slow_prob=0.3, slow_seconds=0.2)
        self.injector = inj


def _random_fault_run(seed: int):
    h = _RandomFaultHarness(seed)
    run = run_once(
        inject=False, make_injector=False, scenario_harness=h,
        resilience=ResilienceConfig(
            fetch_timeout=1.0, fetch_retry_backoff=0.25, fetch_max_attempts=6
        ),
        **_SMALL,
    )
    return run, h.injector


def test_random_fetch_faults_same_seed_same_fault_set():
    """Two fresh engines, same seed: the random storm must fire the
    identical fault set (kinds, times, targets) and the runs must be
    bit-identical."""
    run_a, inj_a = _random_fault_run(seed=42)
    run_b, inj_b = _random_fault_run(seed=42)
    assert inj_a.injected, "storm fired nothing — probabilities too low"
    assert inj_a.injected == inj_b.injected
    assert fingerprint(run_a) == fingerprint(run_b)
    assert run_a.complete and run_b.complete


def test_random_fetch_faults_different_seed_moves_the_set():
    _run_a, inj_a = _random_fault_run(seed=1)
    _run_b, inj_b = _random_fault_run(seed=2)
    assert inj_a.injected != inj_b.injected
