"""Tests for the data-reduction operators (subsampling, precision)."""

import numpy as np
import pytest

from tests.helpers import PARTICLE_GROUP, particle_step, run_staging_pipeline
from repro.adios import OutputStep
from repro.operators import PrecisionReduceOperator, SubsampleOperator

NPROCS = 8
ROWS = 64


# --------------------------------------------------------- subsample
def test_subsample_stride_deterministic():
    op = SubsampleOperator("electrons", fraction=0.25)
    step = particle_step(0, 1, 100)
    original = step.values["electrons"].copy()
    kept = op.partial_calculate(step)
    assert kept == 25
    np.testing.assert_array_equal(step.values["electrons"], original[::4])


def test_subsample_reduces_packed_volume():
    full = particle_step(0, 1, 100, scale=10.0)
    full_bytes = len(full.pack())
    sampled = particle_step(0, 1, 100, scale=10.0)
    SubsampleOperator("electrons", 0.1).partial_calculate(sampled)
    assert len(sampled.pack()) < full_bytes * 0.25
    assert sampled.nbytes_logical < full.nbytes_logical * 0.25


def test_subsample_pipeline_end_to_end():
    op = SubsampleOperator("electrons", fraction=0.25)
    _, _, predata, _ = run_staging_pipeline([op], nprocs=NPROCS, rows=ROWS)
    svc = predata.service
    kept = sum(
        np.atleast_2d(svc.result(op.name, 0, r)["rows"]).shape[0]
        if len(svc.result(op.name, 0, r)["rows"]) else 0
        for r in range(predata.nstaging_procs)
    )
    assert kept == svc.result(op.name, 0, 0)["global_rows"]
    assert kept == pytest.approx(NPROCS * ROWS * 0.25, rel=0.1)
    # the shuffle and fetch moved only the reduced volume
    report = svc.step_report(0)
    full_bytes = NPROCS * ROWS * 8 * 8 * 10.0
    assert report.bytes_fetched < full_bytes * 0.35


def test_subsample_validation():
    with pytest.raises(ValueError):
        SubsampleOperator("v", 0.0)
    with pytest.raises(ValueError):
        SubsampleOperator("v", 1.5)


# ---------------------------------------------------------- precision
def test_precision_reduce_halves_volume():
    op = PrecisionReduceOperator(["electrons"])
    step = particle_step(0, 1, 100, scale=10.0)
    before = step.nbytes_real
    saved = op.partial_calculate(step)
    assert step.values["electrons"].dtype == np.float32
    assert step.nbytes_real == pytest.approx(before / 2)
    assert saved == pytest.approx(before / 2)
    assert op.compression_ratio == pytest.approx(2.0)


def test_precision_reduce_survives_packing():
    op = PrecisionReduceOperator(["electrons"])
    step = particle_step(3, 4, 50)
    original = step.values["electrons"].copy()
    op.partial_calculate(step)
    out = OutputStep.unpack(PARTICLE_GROUP, step.pack())
    assert out.values["electrons"].dtype == np.float32
    np.testing.assert_allclose(
        out.values["electrons"], original, rtol=1e-6
    )


def test_precision_reduce_idempotent():
    op = PrecisionReduceOperator(["electrons"])
    step = particle_step(0, 1, 10)
    op.partial_calculate(step)
    saved_again = op.partial_calculate(step)  # already float32
    assert saved_again == 0


def test_precision_reduce_validation():
    with pytest.raises(ValueError):
        PrecisionReduceOperator([])


def test_precision_reduce_pipeline():
    op = PrecisionReduceOperator(["electrons"])
    _, _, predata, _ = run_staging_pipeline([op], nprocs=4, rows=32,
                                            scale=8.0)
    res = predata.service.result(op.name, 0, 0)
    expected_saved = 4 * 32 * 8 * 4  # half of 4 ranks x 32 rows x 64 B
    assert res["global_bytes_saved"] == expected_saved
