"""Regression: ``MovementScheduler.max_defer`` bounds fetch starvation.

Pixie3D's inner loop is reduce/bcast-heavy (§V.C): an application that
is *continuously* inside communication phases would, without the
anti-starvation deadline, defer staging fetches forever and wedge the
whole pipeline.  ``max_defer`` guarantees each fetch proceeds within
the bound even when the comm phase never clears.
"""

import numpy as np

from tests.helpers import FIELD_GROUP, field_step
from repro.adios import BPWriter
from repro.core import MovementScheduler, PreDatA
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World
from repro.operators import ArrayMergeOperator
from repro.sim import Engine


def test_wait_clear_returns_at_the_deadline():
    eng = Engine()
    sched = MovementScheduler(eng)
    sched.max_defer = 2.5
    sched.enter_comm_phase(0)  # never exited: worst-case starvation
    out = {}

    def fetcher():
        out["deferred"] = yield from sched.wait_clear(0)

    proc = eng.process(fetcher())
    eng.run_until_process(proc)
    assert out["deferred"] == 2.5
    assert eng.now == 2.5
    assert sched.deferred_fetches == 1
    assert sched.total_defer_seconds == 2.5


def test_continuous_comm_app_does_not_starve_fetches():
    """A Pixie3D-style reduce/bcast loop keeps every compute node inside
    a comm phase essentially always; the staged pipeline must still
    complete each step, with no fetch deferred beyond ``max_defer``."""
    nprocs, nsteps, local_n, scale = 4, 2, 4, 100.0
    max_defer = 0.5
    eng = Engine()
    machine = Machine(eng, nprocs, 1, spec=TESTING_TINY)
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
    )
    predata.scheduler.max_defer = max_defer
    predata.start()
    app = World(
        eng,
        machine.network,
        list(range(nprocs)),
        name="app",
        node_lookup=machine.node,
        wire_scale=scale,
    )
    sched = predata.scheduler

    def app_main(comm):
        for s in range(nsteps):
            step = field_step(comm.rank, nprocs, local_n, step=s, scale=scale)
            yield from predata.transport.write_step(comm, step)
            # continuously-communicating phase: re-enter immediately, so
            # the node is never observably clear for the scheduler
            t_end = eng.now + 3.0
            while eng.now < t_end:
                sched.enter_comm_phase(comm.node_id)
                total = yield from comm.allreduce(1.0)
                yield from comm.bcast(total, root=0)
                sched.exit_comm_phase(comm.node_id)

    app.spawn(app_main)
    eng.run()

    # the pipeline finished every step despite the wall of comm phases
    assert sorted(predata.service.rank_reports) == list(range(nsteps))
    merged = writer.close()
    for s in range(nsteps):
        got = merged.read_global_array("rho", s)
        assert got.shape == (nprocs * local_n, local_n, local_n)
        assert np.isfinite(got).all()
    # fetches were actually contended ... and none starved past the bound
    assert sched.deferred_fetches > 0
    assert (
        sched.total_defer_seconds
        <= sched.deferred_fetches * max_defer + 1e-9
    )
