#!/usr/bin/env python
"""GTC in-situ analytics: the paper's §V.B workload end to end.

Runs the GTC skeleton twice at the same (scaled-down) configuration:

1. In-Compute-Node — sorting + histograms execute synchronously on
   the compute ranks, results written with synchronous MPI-IO;
2. Staging — the same operators run in the PreDatA staging area while
   the simulation continues.

Then prints the paper's comparison: visible I/O time, operation time,
total execution time, and verifies the sorted particle output is
identical through both paths.

Run:  python examples/gtc_insitu_analytics.py
"""

import numpy as np

from repro.adios import SyncMPIIO
from repro.apps import GTCApplication, GTCConfig, GTC_GROUP
from repro.apps.gtc import COL_LABEL
from repro.core import InComputeNodeRunner, PreDatA
from repro.machine import JAGUAR_XT5, Machine
from repro.mpi import World
from repro.operators import HistogramOperator, SampleSortOperator
from repro.sim import Engine

NPROCS = 32  # representative ranks; weak-scaled per-process volume
CFG = GTCConfig(
    nprocs_logical=NPROCS,
    particles_per_proc=200_000,
    functional_rows=128,
    iterations_per_dump=3,
    ndumps=2,
    compute_seconds_per_iteration=8.0,
)


def make_operators(filesystem=None):
    return [
        SampleSortOperator("electrons", COL_LABEL, name="sort"),
        HistogramOperator("electrons", (6,), (256,),
                          name="hist", filesystem=filesystem),
    ]


def run(staged: bool):
    eng = Engine()
    machine = Machine(
        eng, NPROCS, 1 if staged else 0, spec=JAGUAR_XT5,
        fs_interference=False,
    )
    world = World(eng, machine.network, list(range(NPROCS)),
                  name="gtc", node_lookup=machine.node)
    runner = None
    predata = None
    if staged:
        predata = PreDatA(
            eng, machine, GTC_GROUP, make_operators(machine.filesystem),
            ncompute_procs=NPROCS, nsteps=CFG.ndumps,
            volume_scale=CFG.volume_scale,
        )
        predata.start()
        transport = predata.transport
        scheduler = predata.scheduler
    else:
        transport = SyncMPIIO(machine.filesystem, collect_data=False)
        runner = InComputeNodeRunner(machine, make_operators(machine.filesystem))
        scheduler = None
    app = GTCApplication(machine, world, transport, CFG,
                         scheduler=scheduler, runner=runner)
    app.spawn()
    eng.run()
    return app, predata, runner


def main() -> None:
    print(f"GTC skeleton: {NPROCS} procs x "
          f"{CFG.particles_per_proc:,} particles "
          f"({CFG.logical_bytes_per_proc / 1e6:.0f} MB/proc/dump), "
          f"{CFG.ndumps} dumps\n")

    ic_app, _, runner = run(staged=False)
    st_app, predata, _ = run(staged=True)
    im, sm = ic_app.max_metrics(), st_app.max_metrics()

    print("                    In-Compute-Node     Staging")
    print(f"  total time        {im.total:10.2f} s     {sm.total:10.2f} s")
    print(f"  I/O blocking      {im.io_blocking:10.3f} s     "
          f"{sm.io_blocking:10.3f} s")
    print(f"  operations        {im.operations:10.3f} s     "
          f"{'(hidden)':>12}")
    gain = (im.total - sm.total) / im.total * 100
    print(f"  improvement       {gain:29.2f} %\n")

    for step in range(CFG.ndumps):
        rep = predata.service.step_report(step)
        print(f"  staging step {step}: fetch={rep.fetch:.2f} s "
              f"sort+hist={rep.map + rep.shuffle + rep.reduce:.2f} s "
              f"latency={rep.latency:.2f} s")

    # --- verify both placements produced the same sorted particles
    staged_sorted = np.concatenate([
        np.atleast_2d(b) for b in (
            predata.service.result("sort", 0, r)
            for r in range(predata.nstaging_procs)
        ) if len(b)
    ])
    incompute_sorted = np.concatenate([
        np.atleast_2d(b) for b in (
            runner.results["sort"][0][r] for r in range(NPROCS)
        ) if len(b)
    ])
    np.testing.assert_array_equal(
        staged_sorted[:, COL_LABEL], incompute_sorted[:, COL_LABEL]
    )
    assert np.all(np.diff(staged_sorted[:, COL_LABEL]) >= 0)
    print(f"\nBoth placements sorted {staged_sorted.shape[0]} particles "
          "identically (labels globally ordered).")


if __name__ == "__main__":
    main()
