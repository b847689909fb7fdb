#!/usr/bin/env python
"""Quickstart: stage simulation output through PreDatA.

Builds a small machine, runs an 8-process toy simulation that dumps a
particle array each step, and attaches two PreDatA operators in the
staging area: a global min/max characterisation (computed from
compute-node partial results before any bulk data moves) and a 1-D
histogram for online monitoring.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.adios import GroupDef, OutputStep, VarDef, VarKind
from repro.core import PreDatA
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World
from repro.operators import HistogramOperator, MinMaxOperator
from repro.sim import Engine

NPROCS = 8
ROWS = 500  # functional particles per process
VOLUME_SCALE = 1000.0  # each row stands for 1000 rows of real output
NSTEPS = 3

# 1. Declare what the application outputs (the ADIOS group).
group = GroupDef(
    "particles",
    (VarDef("particles", "float64", VarKind.LOCAL_ARRAY, ndim=2),),
)


def main() -> None:
    # 2. One engine carries the whole machine.
    eng = Engine()
    machine = Machine(
        eng, n_compute_nodes=NPROCS, n_staging_nodes=1,
        spec=TESTING_TINY, fs_interference=False,
    )

    # 3. The application's MPI world (one rank per compute node here).
    world = World(
        eng, machine.network, list(range(NPROCS)),
        name="app", node_lookup=machine.node,
    )

    # 4. PreDatA: operators + staging area, wired to a transport.
    operators = [
        MinMaxOperator("particles"),
        HistogramOperator("particles", (0,), (32,)),
    ]
    predata = PreDatA(
        eng, machine, group, operators,
        ncompute_procs=NPROCS, nsteps=NSTEPS,
        volume_scale=VOLUME_SCALE,
    )
    predata.start()

    # 5. The application: compute, then write through the transport —
    #    the same call it would make for synchronous I/O.
    def app(comm):
        rng = np.random.default_rng(comm.rank)
        for step in range(NSTEPS):
            yield from comm.sleep(5.0)  # "the simulation computes"
            data = rng.normal(loc=step, scale=1.0, size=(ROWS, 4))
            out = OutputStep(
                group=group, step=step, rank=comm.rank,
                values={"particles": data}, volume_scale=VOLUME_SCALE,
            )
            visible = yield from predata.transport.write_step(comm, out)
            if comm.rank == 0:
                print(f"  step {step}: rank 0 blocked "
                      f"{visible * 1e3:.2f} ms on I/O")

    world.spawn(app)
    eng.run()

    # 6. Results: every operator's finalize() output, per step.
    print("\nPer-step staging pipeline (simulated seconds):")
    for step in range(NSTEPS):
        rep = predata.service.step_report(step)
        print(f"  step {step}: fetch={rep.fetch:.3f} map={rep.map:.3f} "
              f"shuffle={rep.shuffle:.3f} reduce={rep.reduce:.3f} "
              f"latency={rep.latency:.3f}")

    mm = predata.service.result("minmax:particles", step=NSTEPS - 1)
    print(f"\nGlobal stats of the last step: count={mm.count}, "
          f"col-0 range [{mm.mins[0]:.2f}, {mm.maxs[0]:.2f}]")

    hist_results = [
        predata.service.result("hist:particles[0]", NSTEPS - 1, r)
        for r in range(predata.nstaging_procs)
    ]
    hist = next(h for h in hist_results if h is not None)
    total = int(hist["counts"].sum())
    peak_bin = int(np.argmax(hist["counts"]))
    lo, hi = hist["edges"][peak_bin], hist["edges"][peak_bin + 1]
    print(f"Histogram: {total} particles, mode bin [{lo:.2f}, {hi:.2f})")
    assert total == NPROCS * ROWS


if __name__ == "__main__":
    main()
