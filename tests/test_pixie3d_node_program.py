"""Pixie3D's one-process world program against the per-rank oracle.

``per_rank_main`` is the skeleton as one process per rank: every rank
makes its own compute timeout, comm phase and collective calls.  It is
the reference the world-level ``Pixie3DApplication`` must reproduce rank
for rank, the way ``kernels.NAIVE`` serves the kernels: the same
``AppMetrics`` fields, end time, BP bytes, the same instants at which
each node enters and leaves its comm phase and, when staged, the same
scheduler deferrals and step reports.  Covered: one to four ranks per
node, one and two dumps (the rounds after the first start from the
clocks a staged dump parted, and whose nodes change phase in the order
they finished it), synchronous MPI-IO, and the PreDatA
staging transport with its movement scheduler and a staging steal.
"""

from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest

from repro.adios import BPWriter, SyncMPIIO
from repro.apps import Pixie3DApplication, Pixie3DConfig, pixie3d_group
from repro.apps.metrics import AppMetrics
from repro.apps.pixie3d import COMPUTE_SECONDS_BETWEEN_COLLECTIVES, PIXIE3D_VARS
from repro.core import MovementScheduler, PreDatA
from repro.machine import JAGUAR_XT4, Machine
from repro.mpi import World
from repro.operators import ArrayMergeOperator
from repro.sim import Engine

NODES = 4
#: one core per node, so the ranks a node hosts run Partial_calculate
#: one after another and leave a staged dump at different times
ONE_CORE_XT4 = JAGUAR_XT4.scaled(node=replace(JAGUAR_XT4.node, cores=1))


class _ChargedMerge(ArrayMergeOperator):
    """Array merge whose Partial_calculate costs node time."""

    def partial_flops(self, step):
        return 1e8


def per_rank_main(app, comm):
    """The Pixie3D program as one process per rank (the oracle)."""
    cfg = app.config
    env = comm.env
    m = AppMetrics()
    start = env.now
    ws = app.world.wire_scale
    payload = np.zeros(1)
    scale = max(int(cfg.reduce_payload_logical_bytes / ws / 8), 1) * ws
    dump = 0
    for it in range(cfg.ndumps * cfg.iterations_per_dump):
        for _ in range(cfg.collective_rounds_per_iteration):
            t0 = env.now
            yield env.timeout(
                COMPUTE_SECONDS_BETWEEN_COLLECTIVES * (1.0 + app.staging_steal)
            )
            m.compute += env.now - t0
            t0 = env.now
            if app.scheduler is not None:
                app.scheduler.enter_comm_phase(comm.node_id)
            try:
                yield from comm.reduce(payload, root=0, wire_scale=scale)
                yield from comm.bcast(payload, root=0, wire_scale=scale)
            finally:
                if app.scheduler is not None:
                    app.scheduler.exit_comm_phase(comm.node_id)
            m.comm += env.now - t0
        if (it + 1) % cfg.iterations_per_dump == 0:
            step = app.make_step(comm.rank, dump)
            t0 = env.now
            yield from app.transport.write_step(comm, step)
            m.io_blocking += env.now - t0
            dump += 1
    m.total = env.now - start
    app.metrics[comm.rank] = m
    return m


def _phase_log(sched):
    """Record ``(time, node, in phase)`` whenever a node enters or leaves
    its comm phase (the per-rank oracle nests one level per rank)."""
    log = []

    def logged(change):
        def call(node):
            was = sched.in_comm_phase(node)
            change(node)
            if sched.in_comm_phase(node) != was:
                log.append((sched.env.now, node, not was))
        return call

    sched.enter_comm_phase = logged(sched.enter_comm_phase)
    sched.exit_comm_phase = logged(sched.exit_comm_phase)
    return log


def _same_instant_nodes(phases):
    """The nodes of each run of same-instant, same-direction phase
    changes, in the order they changed."""
    return [
        [node for _, node, _ in run]
        for _, run in groupby(phases, key=lambda e: (e[0], e[2]))
    ]


def _run(per_node, ndumps, transport, *, oracle, tmp_path):
    """One Pixie3D run: what the oracle and the node program must share."""
    nranks = NODES * per_node
    eng = Engine()
    machine = Machine(eng, NODES, 1 if transport == "staging" else 0,
                      spec=ONE_CORE_XT4)
    world = World(eng, machine.network, [r % NODES for r in range(nranks)],
                  name="pixie3d", node_lookup=machine.node,
                  model_size=16 * nranks)
    cfg = Pixie3DConfig(nprocs_logical=16 * nranks, local_size=16,
                        functional_size=4, iterations_per_dump=2,
                        ndumps=ndumps, collective_rounds_per_iteration=3,
                        # collectives long enough for fetches to meet them
                        reduce_payload_logical_bytes=6.4e7)
    group = pixie3d_group()
    if transport == "staging":
        writer = BPWriter("merged.bp", group)
        merge = _ChargedMerge(list(PIXIE3D_VARS), out_group=group,
                              filesystem=machine.filesystem, writer=writer)
        predata = PreDatA(eng, machine, group, [merge], ncompute_procs=nranks,
                          nsteps=ndumps, volume_scale=cfg.volume_scale,
                          fetch_rate_cap=1e6)
        predata.start()
        app = Pixie3DApplication(machine, world, predata.transport, cfg,
                                 scheduler=predata.scheduler,
                                 staging_steal=0.008)
    else:
        io = SyncMPIIO(machine.filesystem)
        app = Pixie3DApplication(machine, world, io, cfg,
                                 scheduler=MovementScheduler(eng))
    phases = _phase_log(app.scheduler)
    if oracle:
        world.spawn(lambda comm: per_rank_main(app, comm))
    else:
        app.spawn()
    eng.run()
    out = {"metrics": app.metrics, "end": eng.now, "phases": phases}
    if transport == "staging":
        bp = writer.close()
        sched = predata.scheduler
        out["deferrals"] = (sched.deferred_fetches, sched.total_defer_seconds)
        out["reports"] = [predata.service.step_report(s) for s in range(ndumps)]
    else:
        io.finalize()
        bp = io.file(group.name)
    path = tmp_path / f"{'oracle' if oracle else 'node'}.bp"
    bp.save(path)
    out["bp"] = path.read_bytes()
    return out


@pytest.mark.parametrize("transport", ["sync", "staging"])
@pytest.mark.parametrize("ndumps", [1, 2])
@pytest.mark.parametrize("per_node", [1, 2, 4])
def test_node_program_matches_the_per_rank_oracle(per_node, ndumps, transport,
                                                  tmp_path):
    want = _run(per_node, ndumps, transport, oracle=True, tmp_path=tmp_path)
    got = _run(per_node, ndumps, transport, oracle=False, tmp_path=tmp_path)
    assert sorted(got["metrics"]) == list(range(NODES * per_node))
    for rank, m in want["metrics"].items():
        assert got["metrics"][rank] == m, rank
    assert got == want
    if transport == "staging":
        # a staged dump parts the clocks of the ranks one node hosts; with
        # two dumps, the rounds after the first start from those clocks
        node0 = range(0, NODES * per_node, NODES)
        assert len({want["metrics"][r].io_blocking for r in node0}) == per_node
        if ndumps == 2 and per_node > 1:
            assert want["deferrals"][0] > 0  # fetches met comm phases
        if ndumps == 2:
            # after the first dump the nodes change phase in the order
            # their ranks finished it, which is not spawn order
            assert [0, 3, 1, 2] in _same_instant_nodes(want["phases"])
