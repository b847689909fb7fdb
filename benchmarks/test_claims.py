"""The §V claims, checked on the figure runs they read.

One case per run of :data:`repro.experiments.claims.RUNS`: the run
happens once (its ``BENCH_<name>.json`` keeps the run's name), prints
its figure tables, and the case fails naming every claim on that run
that does not hold.
"""

import pytest

from repro.experiments import claims


@pytest.mark.parametrize("run", list(claims.RUNS))
def test_claims(once, run):
    res = once(claims.RUNS[run].call)
    print()
    print(claims.RUNS[run].table(res))
    failing = claims.failing(run, res)
    assert not failing, f"claims not holding on {run}: {failing}"
