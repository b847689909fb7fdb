"""Shared fixtures/builders for core and operator tests."""

from __future__ import annotations

import numpy as np

from repro.adios import OutputStep, ChunkMeta
from repro.apps.groups import FIELD_GROUP, PARTICLE_GROUP
from repro.core import PreDatA
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World
from repro.sim import Engine


def particle_step(rank, nprocs, rows, step=0, scale=1.0, seed=0):
    """Synthetic out-of-order GTC particles for one rank."""
    rng = np.random.default_rng(seed + 1000 * step + rank)
    data = np.empty((rows, 8))
    # column 0: global label of a particle that currently lives on this
    # rank — labels are a random permutation slice, so arrays arrive
    # out-of-order exactly like GTC's migrated particles.
    data[:, 0] = rng.permutation(nprocs * rows)[:rows]
    data[:, 1:4] = rng.uniform(-1, 1, size=(rows, 3))  # coordinates
    data[:, 4:7] = rng.normal(0, 1, size=(rows, 3))  # velocities
    data[:, 7] = rng.uniform(0, 1, rows)  # weight
    return OutputStep(
        group=PARTICLE_GROUP,
        step=step,
        rank=rank,
        values={"electrons": data},
        volume_scale=scale,
    )


def field_step(rank, nprocs, local_n, step=0, scale=1.0):
    """Pixie3D-like 3-D chunk for one rank (1-D slab decomposition)."""
    gx = nprocs * local_n
    lo = rank * local_n
    base = np.arange(gx * local_n * local_n, dtype=float).reshape(
        gx, local_n, local_n
    )
    return OutputStep(
        group=FIELD_GROUP,
        step=step,
        rank=rank,
        values={"rho": base[lo : lo + local_n]},
        chunks={"rho": ChunkMeta((gx, local_n, local_n), (lo, 0, 0))},
        volume_scale=scale,
    )


def run_staging_pipeline(
    operators,
    *,
    nprocs=8,
    nstaging_nodes=1,
    rows=40,
    nsteps=1,
    scale=10.0,
    group=PARTICLE_GROUP,
    make_step=None,
    io_interval=2.0,
    procs_per_staging_node=2,
    scheduled=True,
    fs_interference=False,
    obs=None,
    check=None,
    flow=None,
    fetch_pipeline_depth=2,
    node_memory_bytes=None,
):
    """Run a small end-to-end Staging-configuration pipeline.

    Returns (engine, machine, predata, app_visible_seconds).
    ``obs``: optional Observability sink bound to the engine;
    ``check``: optional invariant Checker bound likewise.
    """
    eng = Engine()
    if obs is not None:
        obs.bind(eng, label="test-pipeline")
    if check is not None:
        check.bind(eng)
    spec = TESTING_TINY
    if node_memory_bytes is not None:
        from dataclasses import replace

        spec = replace(
            spec, node=replace(spec.node, memory_bytes=node_memory_bytes)
        )
    machine = Machine(
        eng,
        nprocs,
        nstaging_nodes,
        spec=spec,
        fs_interference=fs_interference,
    )
    app_world = World(
        eng,
        machine.network,
        list(range(nprocs)),
        name="app",
        node_lookup=machine.node,
        wire_scale=scale,
    )
    predata = PreDatA(
        eng,
        machine,
        group,
        operators,
        ncompute_procs=nprocs,
        nsteps=nsteps,
        procs_per_staging_node=procs_per_staging_node,
        volume_scale=scale,
        scheduled_movement=scheduled,
        fetch_pipeline_depth=fetch_pipeline_depth,
        flow=flow,
    )
    predata.start()
    visible = {}
    maker = make_step or (
        lambda rank, s: particle_step(rank, nprocs, rows, step=s, scale=scale)
    )

    def app_main(comm):
        total = 0.0
        for s in range(nsteps):
            step = maker(comm.rank, s)
            t = yield from predata.transport.write_step(comm, step)
            total += t
            yield from comm.sleep(io_interval)
        visible[comm.rank] = total

    app_world.spawn(app_main)
    eng.run()
    return eng, machine, predata, visible


def awaited_collective(net, kind, ranks_nodes, nbytes, model_nprocs=None):
    """Process body: one ``Network.start_collective``, awaited; returns
    its elapsed seconds."""
    start = net.env.now
    done = net.env.event()
    net.start_collective(
        kind, ranks_nodes, nbytes, done.succeed, model_nprocs=model_nprocs
    )
    yield done
    return net.env.now - start
