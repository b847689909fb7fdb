"""Fig. 8 at 16,384 cores with every GTC process simulated (R = P).

The figure benchmarks run 64 representative ranks.  This one runs the
16,384-core pair at R = 64 and at R = P = 2,048 and asserts the totals
EXPERIMENTS.md commits for both (§ Fig. 8, "R = 64 against R = P"):

- staging agrees across R to 1e-6 relative, in-compute to 2e-3
  (measured: 1.5e-3);
- the overshoot against the paper's 2.7–5.1 % band is the same at
  R = P as at R = 64, so sampling 64 ranks is not what causes it.

Host seconds go to the ``BENCH_fig8_full_rank.json`` sidecar, per R,
and are never compared.
"""

import time
from dataclasses import dataclass

import pytest

from repro.experiments.fig8 import run_fig8

CORES = 16384

#: R -> (total in-compute s, total staging s, improvement %), as
#: committed in EXPERIMENTS.md
COMMITTED = {
    64: (242.230, 217.144, 10.36),
    2048: (242.605, 217.144, 10.49),
}


@dataclass
class FullRankPoint:
    rep_ranks: int
    host_seconds: float
    total_incompute: float
    total_staging: float
    improvement_pct: float


def _both_rank_counts() -> list[FullRankPoint]:
    points = []
    for rep_ranks in COMMITTED:
        t0 = time.perf_counter()
        (row,) = run_fig8([CORES], rep_ranks=rep_ranks)
        points.append(FullRankPoint(
            rep_ranks, time.perf_counter() - t0,
            row.total_incompute, row.total_staging, row.improvement_pct,
        ))
    return points


def test_fig8_full_rank(once):
    points = once(_both_rank_counts)
    print()
    for p in points:
        print(f"R={p.rep_ranks:5d}  IC {p.total_incompute:.3f} s  "
              f"ST {p.total_staging:.3f} s  {100 * p.improvement_pct:.2f} %  "
              f"({p.host_seconds:.1f} s host)")
    for p in points:
        ic, st, pct = COMMITTED[p.rep_ranks]
        assert p.total_incompute == pytest.approx(ic, abs=5e-4)
        assert p.total_staging == pytest.approx(st, abs=5e-4)
        assert 100 * p.improvement_pct == pytest.approx(pct, abs=5e-3)
    sampled, full = points
    assert sampled.total_staging == pytest.approx(full.total_staging, rel=1e-6)
    assert sampled.total_incompute == pytest.approx(full.total_incompute, rel=2e-3)
