"""Tests for online monitoring and steering."""

import pytest

from tests.helpers import PARTICLE_GROUP, particle_step
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
