"""Repository-root pytest configuration.

Registers the verification subsystem's pytest plugin
(:mod:`repro.check.pytest_plugin`): the ``fuzz_schedule`` marker and
the ``fuzz_seed`` / ``tie_breaker`` / ``invariant_checker`` /
``schedule_trace`` fixtures.  Plugin registration must live in the
rootdir conftest (pytest requirement).

Also adds ``--perf-baseline`` for the hot-path performance layer: when
given, the full-size micro-benchmarks in ``tests/test_perf_regression``
run and their guard ratios are diffed against the committed
``BENCH_*.json`` baselines (pass ``default`` for
``benchmarks/perf/baselines/``, or any directory holding baselines).
"""

import pytest

pytest_plugins = ["repro.check.pytest_plugin"]


def pytest_addoption(parser):
    parser.addoption(
        "--perf-baseline",
        action="store",
        default=None,
        metavar="DIR",
        help="run the full-size perf benchmarks and diff their guards "
        "against the committed BENCH_*.json baselines in DIR "
        "('default' = benchmarks/perf/baselines)",
    )


@pytest.fixture
def perf_baseline_dir(request):
    """Baseline directory from ``--perf-baseline``; skips when absent."""
    opt = request.config.getoption("--perf-baseline")
    if opt is None:
        pytest.skip("pass --perf-baseline [DIR|default] to run the timed guard")
    from repro.perf.bench import baseline_dir

    return baseline_dir(opt)
