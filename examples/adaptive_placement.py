#!/usr/bin/env python
"""Adaptive operator placement under changing conditions (§VII).

The paper's future work: "dynamically adapting system configuration
and operation placement to cope with changing resource availability or
performance characteristics."  Here the same GTC-like workload runs
for 8 dumps under a *latency budget* (results must arrive within 20 s
of the dump — say, for the online monitor downstream):

- dumps start in the Staging placement (simulation-friendliest);
- midway, the staging area degrades — the fetch path slows sharply
  (resource contention from a co-located service);
- the staging pipeline now misses the latency budget; after two missed
  dumps the :class:`~repro.core.AdaptivePlacement` controller demotes
  the operator to In-Compute-Node, where it meets the budget again;
- skipped staging rounds are announced so the staging service stays in
  lockstep.

Run:  python examples/adaptive_placement.py
"""

import numpy as np

from repro.adios import GroupDef, OutputStep, VarDef, VarKind
from repro.core import (
    AdaptivePlacement,
    InComputeNodeRunner,
    PlacementBudget,
    PreDatA,
)
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World
from repro.operators import HistogramOperator
from repro.sim import Engine

NPROCS = 8
ROWS = 200
NSTEPS = 8
DEGRADE_AT = 3  # staging slows from this dump on
BUDGET = PlacementBudget(max_visible_seconds=1.0, max_latency_seconds=20.0)

GROUP = GroupDef(
    "particles",
    (VarDef("particles", "float64", VarKind.LOCAL_ARRAY, ndim=2),),
)


def main() -> None:
    eng = Engine()
    machine = Machine(eng, NPROCS, 1, spec=TESTING_TINY,
                      fs_interference=False)
    world = World(eng, machine.network, list(range(NPROCS)),
                  node_lookup=machine.node)
    predata = PreDatA(
        eng, machine, GROUP,
        [HistogramOperator("particles", (0,), (64,), name="hist")],
        ncompute_procs=NPROCS, nsteps=NSTEPS, volume_scale=2000.0,
        fetch_rate_cap=5e9,
    )
    runner = InComputeNodeRunner(
        machine, [HistogramOperator("particles", (0,), (64,),
                                    name="hist")]
    )
    controller = AdaptivePlacement(BUDGET, initial="staging")
    predata.start()

    def degrade(env):
        """Co-located service steals the fetch path mid-run."""
        # wait until dump DEGRADE_AT approaches, then throttle fetches
        yield env.timeout(DEGRADE_AT * 30.0 - 1.0)
        predata.client.fetch_rate_cap = 0.02e9  # 250x slower

    placements = {}

    def app(comm):
        for step in range(NSTEPS):
            yield from comm.sleep(30.0)  # compute phase
            rng = np.random.default_rng(100 * step + comm.rank)
            out = OutputStep(group=GROUP, step=step, rank=comm.rank,
                             values={"particles": rng.normal(size=(ROWS, 8))},
                             volume_scale=2000.0)
            decision = (controller.decide(step) if comm.rank == 0
                        else None)
            choice = controller.current if comm.rank else decision.placement
            placements.setdefault(step, choice)
            if placements[step] == "staging":
                visible = yield from predata.transport.write_step(comm, out)
            else:
                t0 = comm.env.now
                yield from runner.run_step(comm, out)
                visible = comm.env.now - t0
                yield from predata.client.skip_step(comm, step)
            if comm.rank == 0:
                # wait for this dump's results then report the outcome
                yield from comm.sleep(0.5)
                if placements[step] == "staging":
                    # poll until the staging report for `step` exists
                    while step not in predata.service.rank_reports or len(
                        predata.service.rank_reports[step]
                    ) < predata.nstaging_procs:
                        yield from comm.sleep(0.5)
                    latency = predata.service.step_report(step).latency
                else:
                    latency = visible
                controller.report(step, visible_seconds=visible,
                                  latency_seconds=latency)

    world.spawn(app)
    eng.process(degrade(eng), name="degrader")
    eng.run()

    print(f"{'dump':>4}  {'placement':<10} {'visible':>9}  "
          f"{'latency':>9}  budget")
    for d in controller.history:
        status = ("VIOLATED" if d.violated else "ok") if (
            d.violated is not None) else "-"
        print(f"{d.step:>4}  {d.placement:<10} "
              f"{d.visible_seconds:>8.3f}s  {d.latency_seconds:>8.2f}s  "
              f"{status}")
    print(f"\ncontroller switched placement {controller.switches} time(s); "
          f"violation rate {controller.violation_rate() * 100:.0f} %")
    assert controller.switches >= 1
    assert controller.history[0].placement == "staging"
    assert controller.history[-1].placement == "incompute"


if __name__ == "__main__":
    main()
