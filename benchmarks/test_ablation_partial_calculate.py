"""Ablation — compute-node ``Partial_calculate`` first pass on/off.

§IV.B motivates the optional first pass: tiny per-process summaries
(min/max, sizes, samples) ride the data-fetch requests, so global
properties are known *before* any bulk data moves.  Without it, the
same statistics must be computed by streaming the data through the
staging pipeline and shuffling intermediate results.

Measured contrast: the partial-based min/max ships only bytes-sized
partials (zero shuffle volume) and costs a deterministic local pass on
the compute nodes, while the staging-side variant shuffles per-chunk
summaries and finishes later.
"""

import numpy as np

from repro.core.operator import Emit, OperatorContext, PreDatAOperator
from repro.operators import MinMaxOperator
from repro.adios.group import OutputStep

import sys
sys.path.insert(0, "tests")  # reuse the pipeline fixture builders
from helpers import run_staging_pipeline, particle_step  # noqa: E402

NPROCS = 8
ROWS = 64


class StagingMinMax(PreDatAOperator):
    """Min/max computed entirely in the staging pipeline (no pass 1)."""

    name = "minmax-staging"

    def map(self, ctx: OperatorContext, step: OutputStep):
        data = np.atleast_2d(step.values["electrons"])
        return [Emit("mm", (data.min(axis=0), data.max(axis=0),
                            data.shape[0]))]

    def reduce(self, ctx, tag, values):
        mins = np.min([v[0] for v in values], axis=0)
        maxs = np.max([v[1] for v in values], axis=0)
        return (mins, maxs, sum(v[2] for v in values))

    def finalize(self, ctx, reduced):
        return reduced.get("mm")

    def logical_fraction_shuffled(self) -> float:
        return 0.0


def test_ablation_partial_calculate(once):
    def both():
        _, _, with_partial, visible_p = run_staging_pipeline(
            [MinMaxOperator("electrons")], nprocs=NPROCS, rows=ROWS)
        _, _, without, visible_n = run_staging_pipeline(
            [StagingMinMax()], nprocs=NPROCS, rows=ROWS)
        return with_partial, visible_p, without, visible_n

    with_partial, visible_p, without, visible_n = once(both)
    rep_p = with_partial.service.step_report(0)
    rep_n = without.service.step_report(0)
    print()
    print(f"partial pass : latency={rep_p.latency:.4f} s "
          f"shuffled={rep_p.bytes_shuffled:.0f} B "
          f"visible={max(visible_p.values()):.5f} s")
    print(f"staging-only : latency={rep_n.latency:.4f} s "
          f"shuffled={rep_n.bytes_shuffled:.0f} B "
          f"visible={max(visible_n.values()):.5f} s")

    # results agree
    res_p = with_partial.service.result("minmax:electrons", 0, 0)
    # "mm" reduces on whichever staging rank partition() picked
    per_rank = without.service.results["minmax-staging"][0]
    (res_n,) = [r for r in per_rank.values() if r is not None]
    np.testing.assert_allclose(res_p.mins, res_n[0])
    np.testing.assert_allclose(res_p.maxs, res_n[1])
    assert res_p.count == res_n[2]
    # the partial pass makes the statistic available at request time:
    # nothing crosses the staging shuffle
    assert rep_p.bytes_shuffled == 0.0
    assert rep_n.bytes_shuffled > 0.0
    # and its global value is ready before any bulk data moved
    assert rep_p.aggregate < rep_p.fetch + rep_p.map + 1e-9
