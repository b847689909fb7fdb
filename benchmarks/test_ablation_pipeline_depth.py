"""Ablation — streaming fetch pipeline depth (§IV.C).

Chunks are processed "one by one in a streaming manner" because
staging nodes cannot buffer a whole output step.  The fetch pipeline
depth bounds how many chunks are in flight: depth 1 serialises fetch
and Map; deeper pipelines overlap the next fetch with the current Map
at the price of proportionally more staging memory.
"""

from repro.adios import GroupDef, OutputStep, VarDef, VarKind
from repro.core import PreDatA
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World
from repro.operators import HistogramOperator
from repro.sim import Engine

import numpy as np

GROUP = GroupDef(
    "particles",
    (VarDef("electrons", "float64", VarKind.LOCAL_ARRAY, ndim=2),),
)
NPROCS = 16
ROWS = 64
SCALE = 60000.0  # heavy chunks: Map cost comparable to fetch cost


def run_depth(depth: int) -> dict:
    eng = Engine()
    machine = Machine(eng, NPROCS, 1, spec=TESTING_TINY,
                      fs_interference=False)
    world = World(eng, machine.network, list(range(NPROCS)),
                  node_lookup=machine.node)
    op = HistogramOperator("electrons", (1, 2), (64, 64))
    predata = PreDatA(eng, machine, GROUP, [op], ncompute_procs=NPROCS,
                      nsteps=1, volume_scale=SCALE,
                      fetch_pipeline_depth=depth)
    predata.start()

    def app(comm):
        rng = np.random.default_rng(comm.rank)
        step = OutputStep(group=GROUP, step=0, rank=comm.rank,
                          values={"electrons": rng.random((ROWS, 8))},
                          volume_scale=SCALE)
        yield from predata.transport.write_step(comm, step)

    world.spawn(app)
    eng.run()
    rep = predata.service.step_report(0)
    return {
        "depth": depth,
        "stream": rep.fetch + rep.map,
        "latency": rep.latency,
        "peak_buffer": rep.peak_buffer_bytes,
    }


def test_ablation_pipeline_depth(once):
    def sweep():
        return [run_depth(d) for d in (1, 2, 4)]

    results = once(sweep)
    print()
    for r in results:
        print(f"depth={r['depth']}  fetch+map={r['stream']:7.3f} s  "
              f"latency={r['latency']:7.3f} s  "
              f"peak buffer={r['peak_buffer'] / 1e6:7.1f} MB")
    # overlap pays: deeper pipeline never slower
    assert results[-1]["latency"] <= results[0]["latency"] + 1e-6
    # and depth 1 vs 4 shows a real gain for fetch+map streaming
    assert results[-1]["stream"] < results[0]["stream"] * 0.99
    # the price is buffering: deeper pipelines hold more chunk memory
    assert results[-1]["peak_buffer"] >= results[0]["peak_buffer"]
