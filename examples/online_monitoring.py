#!/usr/bin/env python
"""Online monitoring and steering of a running simulation (§I, §VI).

The intro's motivating loop: histograms computed in-transit validate
the veracity of the ongoing simulation, and when it "operates
improperly" the user takes early action.  Here a GTC-like simulation
develops a numerical instability at step 2 (particle weights blow up);
the in-transit histogram watch spots the anomaly the moment the
staging pipeline finalizes that step, and a steering flag makes the
simulation abort instead of burning the rest of its allocation.

Run:  python examples/online_monitoring.py
"""

import numpy as np

from repro.adios import GroupDef, OutputStep, VarDef, VarKind
from repro.core import OnlineMonitor, PreDatA, SteeringFlag
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World
from repro.operators import HistogramOperator
from repro.sim import Engine

NPROCS = 8
ROWS = 400
NSTEPS = 6
BAD_STEP = 2  # instability appears here

GROUP = GroupDef(
    "particles",
    (VarDef("particles", "float64", VarKind.LOCAL_ARRAY, ndim=2),),
)


def make_data(rank, step):
    rng = np.random.default_rng(100 * step + rank)
    data = rng.normal(size=(ROWS, 8))
    data[:, 6] = rng.uniform(0, 1, ROWS)  # healthy particle weights
    if step >= BAD_STEP:
        # instability: a growing fraction of weights explode
        bad = rng.random(ROWS) < 0.2 * (step - BAD_STEP + 1)
        data[bad, 6] *= 10 ** (step - BAD_STEP + 2)
    return data


def weights_unhealthy(results):
    """Watch condition: too much probability mass beyond the bulk."""
    res = next((r for r in results if r is not None), None)
    if res is None:
        return None
    counts, edges = res["counts"], res["edges"]
    total = counts.sum()
    # healthy weights live in [0, 1]; find mass above 2.0
    tail = counts[np.searchsorted(edges, 2.0) :].sum()
    if tail > 0.01 * total:
        return (f"{tail / total * 100:.1f} % of particle weights "
                f"exceed 2.0 (max edge {edges[-1]:.1e})")
    return None


def main() -> None:
    eng = Engine()
    machine = Machine(eng, NPROCS, 1, spec=TESTING_TINY,
                      fs_interference=False)
    world = World(eng, machine.network, list(range(NPROCS)),
                  node_lookup=machine.node)
    hist = HistogramOperator("particles", (6,), (64,))
    predata = PreDatA(eng, machine, GROUP, [hist],
                      ncompute_procs=NPROCS, nsteps=NSTEPS,
                      volume_scale=50.0)
    abort = SteeringFlag()
    monitor = OnlineMonitor(predata.service)
    monitor.watch(hist.name, weights_unhealthy, action=abort.set)
    predata.start()

    steps_run = {}

    def app(comm):
        for step in range(NSTEPS):
            if abort:
                break  # steering: stop burning the allocation
            yield from comm.sleep(3.0)  # compute phase
            out = OutputStep(group=GROUP, step=step, rank=comm.rank,
                             values={"particles": make_data(comm.rank, step)},
                             volume_scale=50.0)
            yield from predata.transport.write_step(comm, out)
            steps_run[comm.rank] = step

    world.spawn(app)
    eng.run()

    print(f"simulation planned {NSTEPS} steps; instability injected at "
          f"step {BAD_STEP}\n")
    for alarm in monitor.alarms:
        print(f"  ALARM @ t={alarm.sim_time:7.2f} s  step {alarm.step}: "
              f"{alarm.message}")
    last_step = max(steps_run.values())
    print(f"\nsteering flag raised by step {abort.reason.step}; "
          f"simulation stopped after step {last_step} "
          f"(saved {NSTEPS - 1 - last_step} steps of wasted compute)")
    assert abort
    assert abort.reason.step >= BAD_STEP
    assert last_step < NSTEPS - 1


if __name__ == "__main__":
    main()
