"""Hot-path performance layer: operator kernels + benchmarks.

:mod:`repro.perf.kernels` holds numpy kernels for histogram binning,
WAH bitmap coding (words are one ``(nwords, 3)`` array), sample-sort
splitter selection / partitioning / grouping, stable ordering from
unstable SIMD sorts, blocked per-column min/max, and box assembly from
offset-tagged pieces (array merge, BP and DataSpaces reads), each
beside the reference body (:data:`repro.perf.kernels.NAIVE`) it is
tested against bit for bit.  Each has exactly one production
implementation.
:mod:`repro.perf.bench` drives micro-benchmarks over them and emits
``BENCH_*.json`` sidecars consumed by the perf-regression test harness
(``tests/test_perf_regression.py``) and CI.
"""

from repro.perf import kernels

__all__ = ["kernels"]
