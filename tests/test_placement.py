"""Tests for In-Compute-Node placement, offline model, and the scheduler."""

import numpy as np
import pytest

from tests.helpers import PARTICLE_GROUP, particle_step
from repro.core import InComputeNodeRunner, MovementScheduler, OfflineCostModel
from repro.machine import Machine, TESTING_TINY, JAGUAR_XT5
from repro.mpi import World
from repro.operators import HistogramOperator, SampleSortOperator
from repro.sim import Engine


NPROCS = 8
ROWS = 40


def run_in_compute(operators, nprocs=NPROCS, rows=ROWS, scale=10.0, wire_scale=None):
    eng = Engine()
    machine = Machine(eng, nprocs, 0, spec=TESTING_TINY, fs_interference=False)
    world = World(
        eng,
        machine.network,
        list(range(nprocs)),
        name="app",
        node_lookup=machine.node,
        wire_scale=scale if wire_scale is None else wire_scale,
    )
    runner = InComputeNodeRunner(machine, operators)
    visible = {}

    def main(comm):
        step = particle_step(comm.rank, nprocs, rows, scale=scale)
        t = yield from runner.run_step(comm, step)
        visible[comm.rank] = t

    world.spawn(main)
    eng.run()
    return eng, machine, runner, visible


def test_in_compute_sort_correct():
    op = SampleSortOperator("electrons", key_column=0)
    _, _, runner, visible = run_in_compute([op])
    buckets = [runner.results[op.name][0][r] for r in range(NPROCS)]
    total = sum(len(b) for b in buckets)
    assert total == NPROCS * ROWS
    for b in buckets:
        if len(b):
            assert np.all(np.diff(np.atleast_2d(b)[:, 0]) >= 0)
    maxes = [np.atleast_2d(b)[:, 0].max() for b in buckets if len(b)]
    mins = [np.atleast_2d(b)[:, 0].min() for b in buckets if len(b)]
    for hi, lo in zip(maxes[:-1], mins[1:]):
        assert hi <= lo


def test_in_compute_histogram_matches():
    op = HistogramOperator("electrons", column=7, bins=16)
    _, _, runner, _ = run_in_compute([op])
    owned = [
        r for r in runner.results[op.name][0].values() if r is not None
    ]
    assert len(owned) == 1
    assert owned[0]["counts"].sum() == NPROCS * ROWS


def test_in_compute_cost_is_visible():
    op = SampleSortOperator("electrons", key_column=0)
    _, _, runner, visible = run_in_compute([op], scale=100.0)
    # the whole operation cost lands on the application
    assert max(visible.values()) > 0
    timing = runner.step_timing(op.name, 0)
    assert timing.communicate > 0  # the all-to-all shuffle
    assert timing.compute > 0
    assert max(visible.values()) >= timing.total * 0.5


def test_in_compute_partials_are_not_inflated_by_the_world_wire_scale():
    """Stage-1a partials are fixed-size summaries: as in staging, their
    allgather ignores the world's logical-volume inflation."""

    def communicate(wire_scale):
        op = HistogramOperator("electrons", column=7, bins=16)
        _, _, runner, _ = run_in_compute([op], wire_scale=wire_scale)
        return runner.step_timing(op.name, 0).communicate

    assert communicate(1000.0) == communicate(1.0) > 0


def test_in_compute_sort_communication_dominates_at_larger_scale():
    def shuffle_time(nprocs):
        op = SampleSortOperator("electrons", key_column=0)
        _, _, runner, _ = run_in_compute([op], nprocs=nprocs, scale=200.0)
        return runner.step_timing(op.name, 0).communicate

    assert shuffle_time(16) > shuffle_time(4)


# ----------------------------------------------------------- offline
def test_offline_reorganisation_triples_disk_trips():
    eng = Engine()
    machine = Machine(eng, 16, spec=JAGUAR_XT5)
    model = OfflineCostModel(machine, n_analysis_cores=512)
    est = model.estimate(1e12, reduces_data=False)
    assert est.disk_controller_trips == 3
    assert est.extra_storage_bytes == pytest.approx(1e12)
    assert est.read_seconds > 0 and est.write_seconds > 0


def test_offline_reduction_cheaper():
    eng = Engine()
    machine = Machine(eng, 16, spec=JAGUAR_XT5)
    model = OfflineCostModel(machine)
    reduce_est = model.estimate(1e12, reduces_data=True, output_bytes=8e6)
    reorg_est = model.estimate(1e12, reduces_data=False)
    assert reduce_est.latency < reorg_est.latency
    assert reduce_est.disk_controller_trips == 2


def test_offline_latency_scales_with_volume():
    eng = Engine()
    machine = Machine(eng, 16, spec=JAGUAR_XT5)
    model = OfflineCostModel(machine)
    small = model.estimate(1e9, reduces_data=True)
    big = model.estimate(1e12, reduces_data=True)
    assert big.latency > small.latency * 100


def test_offline_validation():
    eng = Engine()
    machine = Machine(eng, 4, spec=TESTING_TINY)
    with pytest.raises(ValueError):
        OfflineCostModel(machine, n_analysis_cores=0)


# ----------------------------------------------------------- scheduler
def test_scheduler_defers_during_comm_phase():
    eng = Engine()
    sched = MovementScheduler(eng)
    sched.enter_comm_phase(3)
    log = {}

    def fetcher(env):
        d = yield from sched.wait_clear(3)
        log["deferred"] = d
        log["t"] = env.now

    def app(env):
        yield env.timeout(2.0)
        sched.exit_comm_phase(3)

    eng.process(fetcher(eng))
    eng.process(app(eng))
    eng.run()
    assert log["t"] == pytest.approx(2.0)
    assert log["deferred"] == pytest.approx(2.0)
    assert sched.deferred_fetches == 1


def test_scheduler_disabled_never_defers():
    eng = Engine()
    sched = MovementScheduler(eng, enabled=False)
    sched.enter_comm_phase(0)

    def fetcher(env):
        d = yield from sched.wait_clear(0)
        return d

    p = eng.process(fetcher(eng))
    eng.run()
    assert p.value == 0.0


def test_scheduler_clear_node_no_wait():
    eng = Engine()
    sched = MovementScheduler(eng)

    def fetcher(env):
        d = yield from sched.wait_clear(7)
        return d

    p = eng.process(fetcher(eng))
    eng.run()
    assert p.value == 0.0


def test_scheduler_max_defer_bound():
    eng = Engine()
    sched = MovementScheduler(eng, max_defer=1.5)
    sched.enter_comm_phase(0)  # never exits

    def fetcher(env):
        d = yield from sched.wait_clear(0)
        return d

    p = eng.process(fetcher(eng))
    eng.run()
    assert p.value == pytest.approx(1.5)


def test_scheduler_nested_phases():
    eng = Engine()
    sched = MovementScheduler(eng)
    sched.enter_comm_phase(1)
    sched.enter_comm_phase(1)
    sched.exit_comm_phase(1)
    assert sched.in_comm_phase(1)
    sched.exit_comm_phase(1)
    assert not sched.in_comm_phase(1)
    with pytest.raises(RuntimeError):
        sched.exit_comm_phase(1)
