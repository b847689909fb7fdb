"""Tests for the GTC and Pixie3D application skeletons + diagnostics."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.adios import SyncMPIIO
from repro.adios.group import ChunkMeta
from repro.apps import (
    DiagnosticsOperator,
    GTCApplication,
    GTCConfig,
    GTC_GROUP,
    Pixie3DApplication,
    Pixie3DConfig,
    divergence,
    gtc_particles,
    kinetic_energy,
    max_velocity,
)
from repro.apps.gtc import COL_LABEL, _global_labels
from repro.apps.pixie3d import COMPUTE_SECONDS_BETWEEN_COLLECTIVES, PIXIE3D_VARS
from repro.core import MovementScheduler, PreDatA
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World, nbytes_of
from repro.operators import SampleSortOperator
from repro.sim import Engine


# ----------------------------------------------------------- GTC data
def test_gtc_labels_form_global_permutation():
    nprocs, rows = 6, 30
    labels = np.concatenate(
        [gtc_particles(r, nprocs, rows)[:, COL_LABEL] for r in range(nprocs)]
    )
    assert sorted(labels.astype(int)) == list(range(nprocs * rows))


def test_gtc_labels_are_one_shared_draw_sliced_per_rank():
    nprocs, rows = 8, 25
    for step, seed in [(0, 42), (1, 42), (3, 43)]:
        # the per-rank formula: each rank draws the whole permutation
        expected = [
            np.random.default_rng(seed + 7919 * step).permutation(nprocs * rows)[
                r * rows : (r + 1) * rows
            ]
            for r in range(nprocs)
        ]
        got = [
            gtc_particles(r, nprocs, rows, step=step, seed=seed)[:, COL_LABEL]
            for r in range(nprocs)
        ]
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)
        assert sorted(np.concatenate(got).astype(int)) == list(range(nprocs * rows))
    # the cached draw cannot be written through by a caller
    with pytest.raises(ValueError, match="read-only"):
        _global_labels(42, 0, nprocs * rows)[0] = -1


def test_gtc_particles_out_of_order():
    data = gtc_particles(0, 8, 100)
    labels = data[:, COL_LABEL]
    assert not np.all(np.diff(labels) >= 0)  # migrated, unsorted


def test_gtc_particles_deterministic():
    a = gtc_particles(2, 8, 50, step=1)
    b = gtc_particles(2, 8, 50, step=1)
    np.testing.assert_array_equal(a, b)
    c = gtc_particles(2, 8, 50, step=2)
    assert not np.array_equal(a, c)


def test_gtc_config_volumes():
    cfg = GTCConfig(particles_per_proc=2_000_000, functional_rows=200)
    assert cfg.logical_bytes_per_proc == pytest.approx(128e6, rel=0.01)
    assert cfg.volume_scale == pytest.approx(10_000.0)
    assert cfg.io_interval_seconds == pytest.approx(108.0)


def small_gtc_cfg(**kw):
    defaults = dict(
        nprocs_logical=8,
        particles_per_proc=20_000,
        functional_rows=40,
        iterations_per_dump=2,
        ndumps=2,
        compute_seconds_per_iteration=5.0,
        comm_rounds_per_iteration=1,
    )
    defaults.update(kw)
    return GTCConfig(**defaults)


def test_gtc_runs_sync_io():
    eng = Engine()
    machine = Machine(eng, 4, 0, spec=TESTING_TINY, fs_interference=False)
    world = World(eng, machine.network, list(range(4)),
                  node_lookup=machine.node)
    transport = SyncMPIIO(machine.filesystem)
    app = GTCApplication(machine, world, transport, small_gtc_cfg())
    app.spawn()
    eng.run()
    transport.finalize()
    m = app.max_metrics()
    assert m.compute == pytest.approx(4 * 5.0)
    assert m.io_blocking > 0
    assert m.total >= m.compute + m.io_blocking
    f = transport.file("gtc_particles")
    assert len(f.pgs) == 4 * 2  # 4 ranks x 2 dumps
    assert len({pg.step for pg in f.pgs}) == 2


def test_gtc_staging_beats_sync_io_blocking():
    def run(staged):
        eng = Engine()
        machine = Machine(eng, 4, 1, spec=TESTING_TINY, fs_interference=False)
        cfg = small_gtc_cfg(particles_per_proc=200_000)
        world = World(eng, machine.network, list(range(4)),
                      node_lookup=machine.node)
        if staged:
            predata = PreDatA(
                eng, machine, GTC_GROUP,
                [SampleSortOperator("electrons", key_column=COL_LABEL)],
                ncompute_procs=4, nsteps=cfg.ndumps,
                volume_scale=cfg.volume_scale,
            )
            predata.start()
            transport = predata.transport
            scheduler = predata.scheduler
        else:
            transport = SyncMPIIO(machine.filesystem)
            scheduler = MovementScheduler(eng)
        app = GTCApplication(machine, world, transport, cfg,
                             scheduler=scheduler)
        app.spawn()
        eng.run()
        return app.max_metrics()

    staged = run(True)
    sync = run(False)
    assert staged.io_blocking < sync.io_blocking


def test_gtc_sorted_output_via_staging():
    eng = Engine()
    machine = Machine(eng, 4, 1, spec=TESTING_TINY, fs_interference=False)
    cfg = small_gtc_cfg(ndumps=1)
    world = World(eng, machine.network, list(range(4)),
                  node_lookup=machine.node)
    op = SampleSortOperator("electrons", key_column=COL_LABEL)
    predata = PreDatA(eng, machine, GTC_GROUP, [op], ncompute_procs=4,
                      nsteps=1, volume_scale=cfg.volume_scale)
    predata.start()
    app = GTCApplication(machine, world, predata.transport, cfg,
                         scheduler=predata.scheduler)
    app.spawn()
    eng.run()
    buckets = [
        predata.service.result(op.name, 0, r)
        for r in range(predata.nstaging_procs)
    ]
    total = sum(len(b) for b in buckets)
    assert total == 4 * (cfg.functional_rows // 2)
    labels = np.concatenate(
        [np.atleast_2d(b)[:, COL_LABEL] for b in buckets if len(b)]
    )
    # sorted buckets in rank order give globally sorted labels
    assert np.all(np.diff(labels) >= 0)


# ----------------------------------------------------------- Pixie3D
def small_pixie_cfg(**kw):
    defaults = dict(
        nprocs_logical=8,
        local_size=8,
        functional_size=4,
        iterations_per_dump=2,
        ndumps=1,
        collective_rounds_per_iteration=3,
    )
    defaults.update(kw)
    return Pixie3DConfig(**defaults)


def test_pixie3d_config():
    cfg = Pixie3DConfig(local_size=32, functional_size=8)
    assert cfg.volume_scale == pytest.approx(64.0)
    assert cfg.logical_bytes_per_proc == pytest.approx(8 * 32**3 * 8)


def test_pixie3d_chunks_tile_global_array():
    cfg = small_pixie_cfg()
    eng = Engine()
    machine = Machine(eng, 4, 0, spec=TESTING_TINY, fs_interference=False)
    world = World(eng, machine.network, list(range(4)),
                  node_lookup=machine.node)
    app = Pixie3DApplication(machine, world, SyncMPIIO(machine.filesystem), cfg)
    steps = [app.make_step(r, 0) for r in range(4)]
    n = cfg.functional_size
    gx = 4 * n
    assembled = np.zeros((gx, n, n))
    for s in steps:
        off = s.chunks["rho"].offsets
        assembled[off[0] : off[0] + n] = s.values["rho"]
    # smooth global field: continuity across slab boundaries
    jumps = np.abs(np.diff(assembled, axis=0)).max()
    interior = np.abs(np.diff(assembled[:n], axis=0)).max()
    assert jumps < 4 * interior + 1e-9


def _meshgrid_field(rank, nprocs, n, var_index, step):
    """The field formula evaluated on a full meshgrid, one variable at a
    time: the oracle the separable synthesis must match bit for bit."""
    x = (np.arange(rank * n, rank * n + n) + 0.5) / (nprocs * n)
    y = (np.arange(n) + 0.5) / n
    z = (np.arange(n) + 0.5) / n
    xx, yy, zz = np.meshgrid(x, y, z, indexing="ij")
    phase = 0.37 * var_index + 0.11 * step + 11 * 1e-3
    field = (
        np.sin(2 * np.pi * (xx + phase))
        * np.cos(2 * np.pi * yy)
        * np.cos(np.pi * zz)
        + 0.1 * var_index
    )
    if var_index == 0:
        field += 2.0
    return field


@pytest.mark.parametrize("n", [6, 8])
def test_pixie3d_synthesis_matches_the_meshgrid_formula(n):
    eng = Engine()
    machine = Machine(eng, 4, 0, spec=TESTING_TINY, fs_interference=False)
    world = World(eng, machine.network, [r % 4 for r in range(64)])
    cfg = Pixie3DConfig(local_size=32, functional_size=n)
    app = Pixie3DApplication(machine, world, SyncMPIIO(machine.filesystem), cfg)
    for rank in (0, 5, 63):
        for step in (0, 1, 3):
            s = app.make_step(rank, step)
            assert list(s.values) == list(PIXIE3D_VARS)
            for vi, var in enumerate(PIXIE3D_VARS):
                got = s.values[var]
                assert got.dtype == np.float64 and got.shape == (n, n, n)
                assert got.flags.c_contiguous
                assert got.tobytes() == _meshgrid_field(rank, 64, n, vi, step).tobytes()
                assert s.chunks[var] == ChunkMeta((64 * n, n, n), (rank * n, 0, 0))
            assert (s.values["rho"] > 0).all()


def test_pixie3d_runs_and_reports():
    cfg = small_pixie_cfg()
    eng = Engine()
    machine = Machine(eng, 4, 0, spec=TESTING_TINY, fs_interference=False)
    world = World(eng, machine.network, list(range(4)),
                  node_lookup=machine.node)
    transport = SyncMPIIO(machine.filesystem)
    app = Pixie3DApplication(machine, world, transport, cfg)
    app.spawn()
    eng.run()
    m = app.max_metrics()
    expected_compute = (
        cfg.ndumps * cfg.iterations_per_dump
        * cfg.collective_rounds_per_iteration
        * COMPUTE_SECONDS_BETWEEN_COLLECTIVES
    )
    assert m.compute == pytest.approx(expected_compute)
    assert m.comm > 0
    assert m.io_blocking > 0


def test_pixie3d_comm_phase_fraction_high():
    # Pixie3D spends most of its loop inside comm phases — the property
    # that makes async staging interference-prone (§V.C).
    cfg = small_pixie_cfg(collective_rounds_per_iteration=8)
    eng = Engine()
    machine = Machine(eng, 4, 0, spec=TESTING_TINY, fs_interference=False)
    world = World(eng, machine.network, list(range(4)),
                  node_lookup=machine.node)
    sched = MovementScheduler(eng)
    app = Pixie3DApplication(
        machine, world, SyncMPIIO(machine.filesystem), cfg, scheduler=sched
    )
    app.spawn()
    eng.run()
    # scheduler saw comm phases from all ranks
    assert not sched.in_comm_phase(0)


# ----------------------------------------------------- diagnostics
def test_kinetic_energy_known_value():
    rho = np.full((4, 4, 4), 2.0)
    p = np.full((4, 4, 4), 4.0)
    zero = np.zeros((4, 4, 4))
    # |p|^2/(2 rho) = 16/4 = 4 per cell, 64 cells
    assert kinetic_energy(rho, p, zero, zero) == pytest.approx(256.0)


def test_kinetic_energy_ignores_vacuum():
    rho = np.zeros((2, 2, 2))
    p = np.ones((2, 2, 2))
    assert kinetic_energy(rho, p, p, p) == 0.0


def test_divergence_of_linear_field_constant():
    n = 8
    x = np.arange(n, dtype=float)
    fx = np.broadcast_to(x[:, None, None], (n, n, n))
    zero = np.zeros((n, n, n))
    div = divergence(fx, zero, zero)
    np.testing.assert_allclose(div, 1.0)


def test_max_velocity():
    rho = np.full((2, 2, 2), 2.0)
    px = np.zeros((2, 2, 2))
    px[0, 0, 0] = 6.0
    assert max_velocity(rho, px, px * 0, px * 0) == pytest.approx(3.0)


def test_diagnostics_operator_global_sums():
    from tests.helpers import run_staging_pipeline, FIELD_GROUP  # noqa: F401
    from repro.apps import pixie3d_group as _pg

    cfg = small_pixie_cfg()
    eng = Engine()
    machine = Machine(eng, 4, 1, spec=TESTING_TINY, fs_interference=False)
    world = World(eng, machine.network, list(range(4)),
                  node_lookup=machine.node)
    op = DiagnosticsOperator()
    predata = PreDatA(eng, machine, _pg(), [op], ncompute_procs=4,
                      nsteps=1, volume_scale=cfg.volume_scale)
    predata.start()
    app = Pixie3DApplication(machine, world, predata.transport, cfg,
                             scheduler=predata.scheduler)
    app.spawn()
    eng.run()
    owned = [
        predata.service.result(op.name, 0, r)
        for r in range(predata.nstaging_procs)
    ]
    owned = [o for o in owned if o is not None]
    assert len(owned) == 1
    res = owned[0]
    # recompute expected from the chunks directly
    steps = [app.make_step(r, 0) for r in range(4)]
    expected_energy = sum(
        kinetic_energy(
            s.values["rho"], s.values["px"], s.values["py"], s.values["pz"]
        )
        for s in steps
    )
    assert res["energy"] == pytest.approx(expected_energy)
    assert res["cells"] == 4 * cfg.functional_size**3


def test_gtc_config_validation():
    with pytest.raises(ValueError):
        GTCConfig(functional_rows=0)
    with pytest.raises(ValueError):
        Pixie3DConfig(functional_size=1)
    with pytest.raises(ValueError):  # a node's ranks rejoin at a collective
        Pixie3DConfig(collective_rounds_per_iteration=0)


# ------------------------------------- main-loop collectives: host cost
def _run_app(app_cls, cfg, *, wire_scale=1.0, model_size=None,
             rank_nodes=(0, 1, 2, 3)):
    """Run *app_cls* on a 4-node machine, rank *r* on ``rank_nodes[r]``;
    returns (worst-rank metrics, every arrival at ``World.collective`` as
    ``(kind, ranks, largest payload in bytes)``)."""
    eng = Engine()
    machine = Machine(eng, 4, 0, spec=TESTING_TINY, fs_interference=False)
    world = World(eng, machine.network, list(rank_nodes),
                  node_lookup=machine.node, wire_scale=wire_scale,
                  model_size=model_size)
    arrivals = []
    arrive = world.collective

    def spy(ranks, kind, payloads, **kwargs):
        arrivals.append((kind, tuple(ranks), max(map(nbytes_of, payloads))))
        return arrive(ranks, kind, payloads, **kwargs)

    world.collective = spy
    transport = SyncMPIIO(machine.filesystem, collect_data=False)
    app = app_cls(machine, world, transport, cfg)
    app.spawn()
    eng.run()
    return app.max_metrics(), arrivals


# name -> (application, default config, small config, payload-size field)
_APPS = {
    "gtc": (GTCApplication, GTCConfig, small_gtc_cfg,
            "comm_payload_logical_bytes"),
    "pixie3d": (Pixie3DApplication, Pixie3DConfig, small_pixie_cfg,
                "reduce_payload_logical_bytes"),
}


@pytest.mark.parametrize("name", sorted(_APPS))
def test_collective_host_cost_independent_of_logical_bytes(name):
    app_cls, _, make_cfg, field = _APPS[name]

    def measured(logical_bytes):
        gc.collect()
        tracemalloc.start()
        try:
            metrics, arrivals = _run_app(
                app_cls, make_cfg(**{field: logical_bytes})
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return metrics.comm, max(nbytes for *_, nbytes in arrivals), peak

    measured(4e6)  # warm caches and lazy imports outside the comparison
    comm_small, payload_small, peak_small = measured(4e6)
    comm_large, payload_large, peak_large = measured(4e8)
    # simulated time follows the logical volume ...
    assert comm_large > 10 * comm_small > 0
    # ... what the host touches does not: nothing reads these payloads,
    # and no rank hands the world more than 64 bytes
    assert 0 < payload_small == payload_large <= 64
    # (one full-size payload of the large case would be 400 MB)
    assert peak_large < peak_small + 1e6


@pytest.mark.parametrize("name, wire_scale, comm", [
    ("gtc", 1.0, 0.3197999999999972),
    ("gtc", 3.0, 0.3197987399997544),
    ("pixie3d", 1.0, 0.29678399999827165),
    ("pixie3d", 3.0, 0.2967681239980501),
], ids=["gtc-ws1", "gtc-ws3", "pixie3d-ws1", "pixie3d-ws3"])
def test_default_config_comm_seconds_pinned(name, wire_scale, comm):
    # Captured at the commit before the stand-in payloads (full-size
    # np.zeros arrays, world-level wire_scale only).  The apps' wire-byte
    # arithmetic, 8 * nelems * wire_scale, must reproduce it to the last
    # digits; expected.json's 1e-6 tolerance would let a change hide.
    app_cls, default_cfg = _APPS[name][:2]
    metrics, _arrivals = _run_app(
        app_cls, default_cfg(), wire_scale=wire_scale, model_size=64
    )
    assert metrics.comm == pytest.approx(comm, rel=1e-13, abs=0.0)


def test_pixie3d_makes_one_arrival_per_collective():
    # 16 ranks round-robin over 4 nodes, and one process carries all of
    # them to each collective, the rounds after a dump included
    rank_nodes = [r % 4 for r in range(16)]
    cfg = small_pixie_cfg(ndumps=2)
    _, arrivals = _run_app(Pixie3DApplication, cfg, rank_nodes=rank_nodes)
    rounds = cfg.ndumps * cfg.iterations_per_dump * cfg.collective_rounds_per_iteration
    assert [kind for kind, *_ in arrivals] == ["reduce", "bcast"] * rounds
    assert {ranks for _, ranks, _ in arrivals} == {tuple(range(16))}
    assert max(nbytes for *_, nbytes in arrivals) <= 64
    # GTC runs one process per rank: every arrival carries one rank
    _, arrivals = _run_app(GTCApplication, small_gtc_cfg(), rank_nodes=rank_nodes[:8])
    assert {len(ranks) for _, ranks, _ in arrivals} == {1}
