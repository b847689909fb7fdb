"""Tests for online monitoring/steering and BP regions."""

import numpy as np
import pytest

from tests.helpers import PARTICLE_GROUP, particle_step
from repro.adios import BPWriter, ChunkMeta, GroupDef, OutputStep, VarDef, VarKind
from repro.adios.bp import BPError
from repro.core import OnlineMonitor, PreDatA, SteeringFlag
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World
from repro.operators import MinMaxOperator
from repro.sim import Engine


# ------------------------------------------------------------ monitor
def run_monitored(condition, nsteps=2):
    eng = Engine()
    machine = Machine(eng, 8, 1, spec=TESTING_TINY, fs_interference=False)
    world = World(eng, machine.network, list(range(8)),
                  node_lookup=machine.node)
    op = MinMaxOperator("electrons")
    predata = PreDatA(eng, machine, PARTICLE_GROUP, [op],
                      ncompute_procs=8, nsteps=nsteps, volume_scale=10.0)
    monitor = OnlineMonitor(predata.service)
    flag = SteeringFlag()
    monitor.watch(op.name, condition, action=flag.set)
    predata.start()

    def app(comm):
        for s in range(nsteps):
            step = particle_step(comm.rank, 8, 40, step=s, scale=10.0)
            yield from predata.transport.write_step(comm, step)
            yield from comm.sleep(1.0)

    world.spawn(app)
    eng.run()
    return monitor, flag


def test_monitor_fires_on_condition():
    def always(results):
        present = [r for r in results if r is not None]
        return f"saw {len(present)} results" if present else None

    monitor, flag = run_monitored(always, nsteps=2)
    assert len(monitor.alarms) == 2  # one per step
    assert bool(flag)
    assert flag.reason.step == 0
    assert "saw" in flag.reason.message
    assert monitor.alarms_for("minmax:electrons") == monitor.alarms


def test_monitor_silent_when_healthy():
    monitor, flag = run_monitored(lambda results: None)
    assert monitor.alarms == []
    assert not flag


def test_monitor_condition_sees_real_values():
    fired = {}

    def check(results):
        res = next(r for r in results if r is not None)
        fired["count"] = res.count
        return None

    run_monitored(check, nsteps=1)
    assert fired["count"] == 8 * 40


def test_monitor_unknown_operator_rejected():
    eng = Engine()
    machine = Machine(eng, 2, 1, spec=TESTING_TINY)
    predata = PreDatA(eng, machine, PARTICLE_GROUP,
                      [MinMaxOperator("electrons")], ncompute_procs=2)
    monitor = OnlineMonitor(predata.service)
    with pytest.raises(KeyError):
        monitor.watch("nope", lambda r: None)


def test_steering_flag_keeps_first_reason():
    from repro.core.monitor import Alarm

    flag = SteeringFlag()
    a1 = Alarm(step=0, operator="x", message="first", sim_time=1.0)
    a2 = Alarm(step=1, operator="x", message="second", sim_time=2.0)
    flag.set(a1)
    flag.set(a2)
    assert flag.reason is a1


# ----------------------------------------------------- BP region read
def field_file(nprocs=4, n=4):
    g = GroupDef("f", (VarDef("rho", "float64",
                              VarKind.GLOBAL_ARRAY, ndim=3),))
    gx = nprocs * n
    full = np.arange(gx * n * n, dtype=float).reshape(gx, n, n)
    w = BPWriter("f.bp", g)
    for r in range(nprocs):
        lo = r * n
        w.append_step(OutputStep(
            group=g, step=0, rank=r, values={"rho": full[lo : lo + n]},
            chunks={"rho": ChunkMeta((gx, n, n), (lo, 0, 0))},
        ))
    return w.close(), full


def test_read_region_matches_numpy_slice():
    f, full = field_file()
    sub, extents = f.read_region("rho", 0, (3, 1, 0), (9, 3, 4))
    np.testing.assert_array_equal(sub, full[3:9, 1:3, 0:4])
    assert extents == 3  # rows 3..9 span chunks 0,1,2


def test_read_region_single_chunk():
    f, full = field_file()
    sub, extents = f.read_region("rho", 0, (0, 0, 0), (4, 4, 4))
    np.testing.assert_array_equal(sub, full[:4])
    assert extents == 1


def test_read_region_whole_array():
    f, full = field_file()
    sub, extents = f.read_region("rho", 0, (0, 0, 0), full.shape)
    np.testing.assert_array_equal(sub, full)
    assert extents == 4


def test_read_region_validation():
    f, full = field_file()
    with pytest.raises(BPError):
        f.read_region("rho", 0, (0, 0), (4, 4))  # rank mismatch
    with pytest.raises(BPError):
        f.read_region("rho", 0, (0, 0, 0), (99, 4, 4))  # out of bounds
    with pytest.raises(BPError):
        f.read_region("rho", 0, (2, 2, 2), (2, 4, 4))  # empty box
