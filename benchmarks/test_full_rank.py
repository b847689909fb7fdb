"""Figs. 8 and 10 at their largest scale with every process simulated (R = P).

The figure benchmarks run 64 representative ranks.  This one runs each
figure's largest pair at R = 64 and at R = P and asserts the totals
EXPERIMENTS.md commits for both ("R = 64 against R = P" under § Fig. 8
and § Fig. 10):

- Fig. 8, 16,384 cores, P = 2,048 GTC processes: staging agrees across
  R to 1e-6 relative, in-compute to 2e-3 (measured: 1.5e-3); the
  overshoot against the paper's 2.7–5.1 % band is the same at R = P as
  at R = 64, so sampling 64 ranks is not what causes it;
- Fig. 10, 4,096 cores, P = 4,096 Pixie3D processes: in-compute is
  bit-identical across R and staging agrees to 1e-6 (measured: 2.5e-7),
  so the slowdown is +0.0505 % at both.

Each total is also pinned exactly (``==``), and so are Fig. 8's staging
run's engine event count and result fingerprint: these are the
paper-scale pins a change to the engine or the scheduler answers to.

Host seconds go to one ``BENCH_full_rank_<figure>.json`` sidecar per
figure, per R, and are never compared.
"""

import time
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.check import result_fingerprint
from repro.experiments import fig8, fig10


@dataclass
class FullRankPoint:
    rep_ranks: int
    host_seconds: float
    total_incompute: float
    total_staging: float
    change_pct: float  # Fig. 8's improvement, Fig. 10's slowdown
    #: compared with ``==``: both totals, then Fig. 8's staging engine
    #: event count and result fingerprint
    pins: tuple


@dataclass(frozen=True)
class Figure:
    cores: int
    run: Callable[..., FullRankPoint]
    #: R -> (total in-compute s, total staging s, change %), as committed
    #: in EXPERIMENTS.md, and the change's tolerance at that precision
    committed: dict
    change_abs: float
    #: R -> :attr:`FullRankPoint.pins`
    pins: dict
    incompute_rel: float


def _spy(monkeypatch, module, name: str) -> list:
    """Every result *module.name* returns from now on, in call order."""
    results, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, spy)
    return results


def _fig8_point(monkeypatch, cores: int, rep_ranks: int) -> FullRankPoint:
    runs = _spy(monkeypatch, fig8, "run_gtc")
    (row,) = fig8.run_fig8([cores], rep_ranks=rep_ranks)
    (staging,) = [r.predata for r in runs if r.placement == "staging"]
    # scheduled movement defers no fetch at this scale (ROADMAP 8(b))
    assert staging.scheduler.deferred_fetches == 0
    return FullRankPoint(
        rep_ranks, 0.0, row.total_incompute, row.total_staging, 100 * row.improvement_pct,
        (row.total_incompute, row.total_staging, staging.env._seq,
         result_fingerprint(staging)),
    )


def _fig10_point(monkeypatch, cores: int, rep_ranks: int) -> FullRankPoint:
    (row,) = fig10.run_fig10([cores], rep_ranks=rep_ranks)
    return FullRankPoint(
        rep_ranks, 0.0, row.total_incompute, row.total_staging, 100 * row.slowdown_pct,
        (row.total_incompute, row.total_staging),
    )


FIGURES = {
    "fig8": Figure(
        cores=16384,
        run=_fig8_point,
        committed={64: (242.230, 217.144, 10.36), 2048: (242.605, 217.144, 10.49)},
        change_abs=5e-3,
        pins={
            64: (242.22991027995283, 217.14437581959228, 6_316,
                 "066c113f1c66f289f31194d6a799498c9b062b3ecc32c1ee171b1f17c31e76d8"),
            2048: (242.6045080654096, 217.14437663959228, 193_184,
                   "aebc77436bc557862b4b7dae6493672520618134912dc57bc6c0c04548c4f5fd"),
        },
        incompute_rel=2e-3,
    ),
    "fig10": Figure(
        cores=4096,
        run=_fig10_point,
        committed={64: (115.795, 115.854, 0.0505), 4096: (115.795, 115.854, 0.0505)},
        change_abs=5e-5,
        pins={
            64: (115.79510050283412, 115.85358197005749),
            4096: (115.79510050283412, 115.85361064205749),
        },
        incompute_rel=1e-6,
    ),
}


def _both_rank_counts(monkeypatch, figure: Figure) -> list[FullRankPoint]:
    points = []
    for rep_ranks in figure.committed:
        t0 = time.perf_counter()
        with monkeypatch.context() as patch:
            point = figure.run(patch, figure.cores, rep_ranks)
        point.host_seconds = time.perf_counter() - t0
        points.append(point)
    return points


@pytest.mark.parametrize("name", list(FIGURES))
def test_full_rank(once, monkeypatch, name):
    figure = FIGURES[name]
    points = once(_both_rank_counts, monkeypatch, figure)
    print()
    for p in points:
        print(f"{name} R={p.rep_ranks:5d}  IC {p.total_incompute:.3f} s  "
              f"ST {p.total_staging:.3f} s  {p.change_pct:+.4f} %  "
              f"({p.host_seconds:.1f} s host)")
    for p in points:
        ic, st, change = figure.committed[p.rep_ranks]
        assert p.total_incompute == pytest.approx(ic, abs=5e-4)
        assert p.total_staging == pytest.approx(st, abs=5e-4)
        assert p.change_pct == pytest.approx(change, abs=figure.change_abs)
        assert p.pins == figure.pins[p.rep_ranks]
    sampled, full = points
    assert sampled.total_staging == pytest.approx(full.total_staging, rel=1e-6)
    assert sampled.total_incompute == pytest.approx(full.total_incompute, rel=figure.incompute_rel)
