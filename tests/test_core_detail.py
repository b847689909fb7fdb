"""Detail tests for the core middleware: client back-pressure, failure
injection, memory ceilings, transports, config validation."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from tests.helpers import PARTICLE_GROUP, particle_step, run_staging_pipeline
from repro.adios import OutputStep
from repro.check.workloads import run_workload
from repro.core import (
    PreDatA,
    PreDatAOperator,
    StagingClient,
)
from repro.core.client import default_route
from repro.core.staging import StagingConfig
from repro.machine import Machine, TESTING_TINY
from repro.machine.node import MemoryError_
from repro.mpi import World
from repro.operators import MinMaxOperator
from repro.sim import Engine


# ------------------------------------------------------------ routing
def test_default_route_block_mapping():
    assert default_route(0, 64, 4) == 0
    assert default_route(63, 64, 4) == 3
    assert default_route(16, 64, 4) == 1
    # every staging rank gets a contiguous, near-even share
    shares = {}
    for r in range(64):
        shares.setdefault(default_route(r, 64, 4), []).append(r)
    assert all(len(v) == 16 for v in shares.values())


def test_custom_route_validated():
    eng = Engine()
    machine = Machine(eng, 2, 1, spec=TESTING_TINY)
    client = StagingClient(
        eng, machine, [], ncompute=2, nstaging=2,
        staging_nodes=list(machine.staging_node_ids) * 2,
        route=lambda r, nc, ns: 99,
    )
    with pytest.raises(ValueError, match="Route"):
        client.route(0)


def test_route_hook_through_the_facade():
    """§IV.B's ``Route()``: a user mapping handed to :class:`PreDatA`
    decides which staging process pulls each compute process's chunk."""
    eng = Engine()
    machine = Machine(eng, 8, 1, spec=TESTING_TINY, fs_interference=False)
    op = MinMaxOperator("electrons")
    predata = PreDatA(
        eng, machine, PARTICLE_GROUP, [op], ncompute_procs=8,
        route=lambda rank, ncompute, nstaging: 1,  # everything to staging rank 1
    )
    predata.start()
    app = World(eng, machine.network, list(range(8)), node_lookup=machine.node)
    steps = [particle_step(r, 8, 40) for r in range(8)]

    def app_main(comm):
        yield from predata.transport.write_step(comm, steps[comm.rank])

    app.spawn(app_main)
    eng.run()
    assert predata.client.compute_ranks_of(0) == []
    assert predata.client.compute_ranks_of(1) == list(range(8))
    per_rank = predata.service.rank_reports[0]
    chunk = steps[0].nbytes_logical
    assert (per_rank[0].bytes_fetched, per_rank[1].bytes_fetched) == (0.0, 8 * chunk)
    # the global result does not depend on who fetched what
    data = np.concatenate([s.values["electrons"] for s in steps])
    for res in predata.service.results[op.name][0].values():
        assert res.count == 320
        assert np.array_equal(res.mins, data.min(axis=0))
        assert np.array_equal(res.maxs, data.max(axis=0))


def test_client_validation():
    eng = Engine()
    machine = Machine(eng, 2, 1, spec=TESTING_TINY)
    with pytest.raises(ValueError):
        StagingClient(eng, machine, [], ncompute=2, nstaging=0,
                      staging_nodes=[])
    with pytest.raises(ValueError):
        StagingClient(eng, machine, [], ncompute=2, nstaging=1,
                      staging_nodes=[2], fetch_rate_cap=0.0)


def test_serve_fetch_unknown_buffer():
    eng = Engine()
    machine = Machine(eng, 2, 1, spec=TESTING_TINY)
    client = StagingClient(eng, machine, [], ncompute=2, nstaging=1,
                          staging_nodes=[2])

    def fetch():
        yield from client.serve_fetch(0, 0, 2)

    p = eng.process(fetch())
    eng.run()
    assert not p.ok and isinstance(p.value, KeyError)


# ------------------------------------------------------ back-pressure
def test_write_blocks_at_max_buffered_steps():
    """With no staging service draining, the 3rd write must block."""
    eng = Engine()
    machine = Machine(eng, 1, 1, spec=TESTING_TINY, fs_interference=False)
    world = World(eng, machine.network, [0], node_lookup=machine.node)
    client = StagingClient(eng, machine, [], ncompute=1, nstaging=1,
                          staging_nodes=[1], max_buffered_steps=2)
    progress = []

    def app(comm):
        for s in range(3):
            step = particle_step(0, 1, 10, step=s)
            yield from client.write_step(comm, step)
            progress.append(s)

    world.spawn(app)
    eng.run()
    # steps 0 and 1 buffered; step 2 blocked forever (nobody fetches)
    assert progress == [0, 1]
    assert client.outstanding_buffers == 2


def test_write_resumes_after_fetch_frees_buffer():
    eng = Engine()
    machine = Machine(eng, 1, 1, spec=TESTING_TINY, fs_interference=False)
    world = World(eng, machine.network, [0], node_lookup=machine.node)
    client = StagingClient(eng, machine, [], ncompute=1, nstaging=1,
                          staging_nodes=[1], max_buffered_steps=1)
    progress = []

    def app(comm):
        for s in range(2):
            step = particle_step(0, 1, 10, step=s)
            yield from client.write_step(comm, step)
            progress.append((s, comm.env.now))

    def drainer(env):
        yield env.timeout(5.0)
        yield from client.serve_fetch(0, 0, 1)

    world.spawn(app)
    eng.process(drainer(eng))
    eng.run()
    assert len(progress) == 2
    # the second write completed only after the drain at t=5
    assert progress[1][1] >= 5.0


# ------------------------------------------- packed-chunk lifetime
def _shared_input_steps(nprocs, rows):
    """``make_step`` over one array per rank, so inputs do not grow with
    the step count and only the pipeline's own memory does."""
    base = {r: particle_step(r, nprocs, rows) for r in range(nprocs)}

    def make_step(rank, s):
        return dataclasses.replace(base[rank], step=s)

    return make_step


def test_drained_client_references_no_packed_buffer():
    """Regression: every default-mode dump left its pack scratch in the
    client for good (only the resilient ``commit`` ever recycled one)."""
    from repro.core.client import _BufferRecord

    run = run_workload("minmax", nprocs=8, nsteps=5)
    assert sorted(run.results()) == list(range(5))
    client = run.predata.client
    held = [
        item
        for attr in vars(client).values()
        if isinstance(attr, (dict, list))
        for item in (attr.values() if isinstance(attr, dict) else attr)
        if isinstance(item, (np.ndarray, memoryview, _BufferRecord))
    ]
    assert held == []


def test_payload_buffer_dies_with_its_last_reader(monkeypatch):
    """The payload view owns its bytes: once a step's results exist and
    the stagers have let go of its chunks, the buffers are gone — while
    the pipeline that produced them is still running."""
    import repro.check.workloads as workloads

    backing, pipelines, seen = {}, [], {}
    pack = OutputStep.pack

    def recording_pack(self, **kw):
        payload = pack(self, **kw)
        backing[(self.rank, self.step)] = weakref.ref(payload.obj)
        return payload

    class Recorded(PreDatA):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            pipelines.append(self)

    monkeypatch.setattr(OutputStep, "pack", recording_pack)
    monkeypatch.setattr(workloads, "PreDatA", Recorded)
    nsteps = 4
    make_step = _shared_input_steps(8, 40)

    def observing_make_step(rank, s):
        if rank == 0 and s == nsteps - 1:  # mid-run: the last dump begins
            gc.collect()
            seen["step0_done"] = 0 in pipelines[0].service.results["minmax:electrons"]
            seen["step0_alive"] = [
                k for k, ref in backing.items() if k[1] == 0 and ref() is not None
            ]
        return make_step(rank, s)

    run = run_workload("minmax", nprocs=8, nsteps=nsteps, make_step=observing_make_step)
    assert seen == {"step0_done": True, "step0_alive": []}
    gc.collect()
    assert len(backing) == 8 * nsteps
    assert [k for k, ref in backing.items() if ref() is not None] == []
    assert run.predata.client.outstanding_buffers == 0


def test_pipeline_memory_does_not_grow_with_the_step_count():
    rows = 16_000
    chunk_bytes = rows * 8 * 8

    def peak(nsteps):
        make_step = _shared_input_steps(8, rows)
        gc.collect()
        tracemalloc.start()
        try:
            run_workload("minmax", nprocs=8, nsteps=nsteps, make_step=make_step)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(peak(12) - peak(3)) < chunk_bytes


# -------------------------------------------------- failure injection
class ExplodingOperator(PreDatAOperator):
    name = "exploder"

    def __init__(self, phase: str):
        self.phase = phase

    def map(self, ctx, step):
        if self.phase == "map":
            raise RuntimeError("map exploded")
        return []

    def reduce(self, ctx, tag, values):
        if self.phase == "reduce":
            raise RuntimeError("reduce exploded")
        return values

    def aggregate(self, partials):
        if self.phase == "aggregate":
            raise RuntimeError("aggregate exploded")
        return None

    def partial_calculate(self, step):
        return 1  # so aggregate() gets called


@pytest.mark.parametrize("phase", ["map", "aggregate"])
def test_operator_failure_surfaces(phase):
    op = ExplodingOperator(phase)
    _, _, predata, _ = run_staging_pipeline([op])
    procs = predata.service._procs
    failed = [p for p in procs if p.triggered and not p.ok]
    assert failed, "operator failure must fail the staging service"
    assert any("exploded" in str(p.value) for p in failed)


def test_staging_memory_ceiling_enforced():
    """A staging node too small for even one chunk fails loudly —
    the §IV.C streaming-justification invariant."""
    from dataclasses import replace

    tiny_node = replace(TESTING_TINY.node, memory_bytes=1e4)
    tiny = TESTING_TINY.scaled(node=tiny_node)
    eng = Engine()
    machine = Machine(eng, 2, 1, spec=tiny, fs_interference=False)
    world = World(eng, machine.network, [0, 1], node_lookup=machine.node)
    predata = PreDatA(eng, machine, PARTICLE_GROUP, [MinMaxOperator("electrons")],
                      ncompute_procs=2, nsteps=1, volume_scale=1000.0)
    predata.start()

    def app(comm):
        step = particle_step(comm.rank, 2, 40, scale=1000.0)
        yield from predata.transport.write_step(comm, step)

    app_procs = world.spawn(app)
    eng.run()
    all_procs = predata.service._procs + app_procs
    failures = [p.value for p in all_procs if p.triggered and not p.ok]
    assert any(isinstance(v, MemoryError_) for v in failures)


# ----------------------------------------------------- configuration
def test_staging_config_validation():
    with pytest.raises(ValueError):
        StagingConfig(threads_per_process=0)
    with pytest.raises(ValueError):
        StagingConfig(fetch_pipeline_depth=0)
    with pytest.raises(ValueError):
        StagingConfig(nsteps=0)


def test_middleware_validation():
    eng = Engine()
    machine_no_staging = Machine(eng, 2, 0, spec=TESTING_TINY)
    with pytest.raises(ValueError, match="staging nodes"):
        PreDatA(eng, machine_no_staging, PARTICLE_GROUP, [],
                ncompute_procs=2)
    machine = Machine(eng, 2, 1, spec=TESTING_TINY)
    with pytest.raises(ValueError):
        PreDatA(eng, machine, PARTICLE_GROUP, [], ncompute_procs=0)


def test_duplicate_operator_names_rejected():
    eng = Engine()
    machine = Machine(eng, 2, 1, spec=TESTING_TINY)
    ops = [MinMaxOperator("electrons"), MinMaxOperator("electrons")]
    with pytest.raises(ValueError, match="duplicate"):
        PreDatA(eng, machine, PARTICLE_GROUP, ops, ncompute_procs=2)


def test_drain_before_start_rejected():
    eng = Engine()
    machine = Machine(eng, 2, 1, spec=TESTING_TINY)
    predata = PreDatA(eng, machine, PARTICLE_GROUP,
                      [MinMaxOperator("electrons")], ncompute_procs=2)
    with pytest.raises(RuntimeError):
        next(predata.drain())


def test_transport_accumulates_visible_time():
    op = MinMaxOperator("electrons")
    _, _, predata, visible = run_staging_pipeline([op], nsteps=2)
    assert predata.transport.visible_write_seconds == pytest.approx(
        sum(visible.values())
    )


def test_scheduler_wired_through_middleware():
    op = MinMaxOperator("electrons")
    _, _, predata, _ = run_staging_pipeline([op], scheduled=False)
    assert predata.scheduler.enabled is False
    _, _, predata2, _ = run_staging_pipeline([op], scheduled=True)
    assert predata2.scheduler.enabled is True
