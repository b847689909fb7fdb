"""End-to-end tests of the PreDatA staging pipeline (core middleware)."""

import numpy as np
import pytest

from tests.helpers import (
    FIELD_GROUP,
    PARTICLE_GROUP,
    field_step,
    particle_step,
    run_staging_pipeline,
)
from repro.core import PreDatA
from repro.faults import ResilienceConfig
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World
from repro.operators import (
    ArrayMergeOperator,
    BitmapIndexOperator,
    FilterOperator,
    HistogramOperator,
    MinMaxOperator,
    SampleSortOperator,
)
from repro.sim import Engine


NPROCS = 8
ROWS = 40


def all_particles(nprocs=NPROCS, rows=ROWS, step=0, scale=10.0):
    return np.concatenate(
        [
            particle_step(r, nprocs, rows, step=step, scale=scale).values[
                "electrons"
            ]
            for r in range(nprocs)
        ]
    )


# ----------------------------------------------------------- sorting
def test_staging_sort_produces_global_order():
    op = SampleSortOperator("electrons", key_column=0)
    _, _, predata, _ = run_staging_pipeline([op])
    svc = predata.service
    nst = predata.nstaging_procs
    buckets = [svc.result(op.name, 0, r) for r in range(nst)]
    # every rank's bucket is internally sorted
    for b in buckets:
        if len(b):
            keys = np.atleast_2d(b)[:, 0]
            assert np.all(np.diff(keys) >= 0)
    # bucket boundaries are globally ordered
    maxes = [np.atleast_2d(b)[:, 0].max() for b in buckets if len(b)]
    mins = [np.atleast_2d(b)[:, 0].min() for b in buckets if len(b)]
    for hi, lo in zip(maxes[:-1], mins[1:]):
        assert hi <= lo
    # no particle lost or duplicated
    got = np.concatenate([np.atleast_2d(b) for b in buckets if len(b)])
    expected = all_particles()
    assert got.shape == expected.shape
    np.testing.assert_array_equal(
        np.sort(got[:, 0]), np.sort(expected[:, 0])
    )


def test_staging_sort_report_phases_populated():
    op = SampleSortOperator("electrons", key_column=0)
    _, _, predata, _ = run_staging_pipeline([op])
    report = predata.service.step_report(0)
    assert report.fetch + report.map > 0
    assert report.shuffle > 0
    assert report.reduce > 0
    assert report.latency > 0
    assert report.bytes_fetched > 0
    assert report.bytes_shuffled > 0
    # latency spans the whole pipeline, so it dominates each phase
    for phase in ("fetch", "map", "shuffle", "reduce", "finalize"):
        assert getattr(report, phase) <= report.latency + 1e-9


# ---------------------------------------------------------- histogram
def test_staging_histogram_matches_numpy():
    op = HistogramOperator("electrons", column=7, bins=32)
    _, _, predata, _ = run_staging_pipeline([op])
    svc = predata.service
    results = [
        svc.result(op.name, 0, r)
        for r in range(predata.nstaging_procs)
    ]
    owned = [r for r in results if r is not None]
    assert len(owned) == 1  # exactly one reducer owns the histogram
    res = owned[0]
    expected_data = all_particles()[:, 7]
    counts, edges = np.histogram(expected_data, bins=res["edges"])
    np.testing.assert_array_equal(res["counts"], counts)
    assert res["counts"].sum() == NPROCS * ROWS


# ----------------------------------------------------------- min/max
def test_staging_minmax_global():
    op = MinMaxOperator("electrons")
    _, _, predata, _ = run_staging_pipeline([op])
    res = predata.service.result(op.name, 0, 0)
    expected = all_particles()
    np.testing.assert_allclose(res.mins, expected.min(axis=0))
    np.testing.assert_allclose(res.maxs, expected.max(axis=0))
    assert res.count == NPROCS * ROWS


# ------------------------------------------------------- bitmap index
def test_staging_bitmap_index_queries_match_bruteforce():
    op = BitmapIndexOperator("electrons", column=1, bins=16)
    _, _, predata, _ = run_staging_pipeline([op])
    svc = predata.service
    lo, hi = -0.5, 0.25
    total = 0
    for r in range(predata.nstaging_procs):
        idx = svc.result(op.name, 0, r)
        result = idx.query(lo, hi)
        brute = (idx.values >= lo) & (idx.values <= hi)
        np.testing.assert_array_equal(result.mask, brute)
        total += result.nrows
    expected = all_particles()[:, 1]
    assert total == int(((expected >= lo) & (expected <= hi)).sum())


# ----------------------------------------------------------- merging
def test_staging_array_merge_reassembles_and_reduces_extents():
    from repro.adios import BPWriter

    writer = BPWriter("merged.bp", FIELD_GROUP)
    op = ArrayMergeOperator(
        ["rho"], out_group=FIELD_GROUP, writer=writer
    )
    local_n = 4
    _, _, predata, _ = run_staging_pipeline(
        [op],
        group=FIELD_GROUP,
        make_step=lambda rank, s: field_step(rank, NPROCS, local_n, step=s),
    )
    merged_file = writer.close()
    # merged file has one PG per staging rank instead of one per proc
    assert merged_file.extents_for("rho", 0) == predata.nstaging_procs
    assert predata.nstaging_procs < NPROCS
    full = merged_file.read_global_array("rho", 0)
    gx = NPROCS * local_n
    expected = np.arange(gx * local_n * local_n, dtype=float).reshape(
        gx, local_n, local_n
    )
    np.testing.assert_array_equal(full, expected)


# ----------------------------------------------------------- filtering
def test_staging_filter_reduces_rows():
    op = FilterOperator("electrons", column=1, lo=0.0, hi=1.0)
    _, _, predata, _ = run_staging_pipeline([op])
    svc = predata.service
    kept = sum(
        np.atleast_2d(svc.result(op.name, 0, r)["rows"]).shape[0]
        if len(svc.result(op.name, 0, r)["rows"])
        else 0
        for r in range(predata.nstaging_procs)
    )
    assert 0 < kept < NPROCS * ROWS
    assert op.selectivity == pytest.approx(kept / (NPROCS * ROWS))
    res = svc.result(op.name, 0, 0)
    assert res["global_kept"] == kept


# ------------------------------------------------------ write latency
def test_staging_hides_write_latency():
    op = HistogramOperator("electrons", column=7)
    _, _, predata, visible = run_staging_pipeline([op], scale=100.0)
    report = predata.service.step_report(0)
    # visible blocking time on compute nodes is far less than the
    # staging-side operation time (the asynchronous-movement payoff).
    assert max(visible.values()) < report.operation_time
    assert max(visible.values()) < 0.5


def test_multiple_steps_processed():
    op = MinMaxOperator("electrons")
    _, _, predata, _ = run_staging_pipeline([op], nsteps=3)
    for s in range(3):
        rep = predata.service.step_report(s)
        assert rep.step == s
        res = predata.service.result(op.name, s, 0)
        assert res.count == NPROCS * ROWS


def test_multiple_operators_one_pass():
    ops = [
        MinMaxOperator("electrons"),
        HistogramOperator("electrons", column=7, bins=16),
        SampleSortOperator("electrons", key_column=0),
    ]
    _, _, predata, _ = run_staging_pipeline(ops)
    svc = predata.service
    assert svc.result(ops[0].name, 0, 0).count == NPROCS * ROWS
    owned = [
        svc.result(ops[1].name, 0, r)
        for r in range(predata.nstaging_procs)
        if svc.result(ops[1].name, 0, r) is not None
    ]
    assert len(owned) == 1
    total_sorted = sum(
        len(svc.result(ops[2].name, 0, r))
        for r in range(predata.nstaging_procs)
    )
    assert total_sorted == NPROCS * ROWS


def test_compute_node_buffers_freed_after_fetch():
    op = MinMaxOperator("electrons")
    _, machine, predata, _ = run_staging_pipeline([op])
    assert predata.client.outstanding_buffers == 0
    for nid in machine.compute_node_ids:
        assert machine.node(nid).memory_used == 0.0


@pytest.mark.parametrize("resilient", [False, True], ids=["plain", "resilient"])
def test_fully_skipped_step_still_commits(resilient):
    """A step every compute rank skipped (adaptive placement, a governor
    degrade) is committed like any other: a commit listener such as a
    ``StreamBridge`` sees it with or without the recovery protocol."""
    nprocs, nsteps = 4, 3
    eng = Engine()
    machine = Machine(eng, nprocs, 1, spec=TESTING_TINY, fs_interference=False)
    predata = PreDatA(
        eng, machine, PARTICLE_GROUP, [MinMaxOperator("electrons")],
        ncompute_procs=nprocs, nsteps=nsteps, procs_per_staging_node=2,
        resilience=ResilienceConfig() if resilient else None,
    )
    stepped, committed = [], []
    predata.service.add_step_listener(lambda step, rank: stepped.append(step))
    predata.service.add_commit_listener(lambda step, rank: committed.append(step))
    predata.start()
    app = World(
        eng, machine.network, list(range(nprocs)), name="app",
        node_lookup=machine.node,
    )

    def app_main(comm):
        for s in range(nsteps):
            if s == 1:
                yield from predata.client.skip_step(comm, s)
            else:
                yield from predata.transport.write_step(
                    comm, particle_step(comm.rank, nprocs, ROWS, step=s)
                )
            yield from comm.sleep(2.0)

    app.spawn(app_main)
    eng.run_until_process(eng.process(predata.drain()))
    assert sorted(set(stepped)) == [0, 1, 2]
    assert sorted(set(committed)) == [0, 1, 2]
    assert committed.count(1) == predata.nstaging_procs


def test_staging_memory_stays_bounded_streaming():
    op = SampleSortOperator("electrons", key_column=0)
    _, machine, predata, _ = run_staging_pipeline([op], scale=50.0)
    report = predata.service.step_report(0)
    one_chunk = ROWS * 8 * 8 * 50.0
    total_input = one_chunk * NPROCS
    # streaming keeps peak buffering well below the full input volume
    assert report.peak_buffer_bytes < total_input
    assert report.peak_buffer_bytes > 0
