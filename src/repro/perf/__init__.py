"""Hot-path performance layer: operator kernels + benchmarks.

Three hot paths of the reproduction have dedicated fast
implementations:

- :mod:`repro.perf.kernels` — numpy kernels for histogram binning, WAH
  bitmap coding, sample-sort splitter selection / partitioning, and
  array-merge chunk stitching, each beside the per-element reference
  body (:data:`repro.perf.kernels.NAIVE`) it is tested against bit for
  bit;
- zero-copy FFS packing (:class:`repro.ffs.PackBuffer`,
  :func:`repro.ffs.encode_into`) used by the compute-side client;
- per-node batched :meth:`~repro.core.scheduler.MovementScheduler.wait_clear`
  wakeups, swept to 100k ranks by :mod:`repro.perf.scale`.

Each has exactly one production implementation.
:mod:`repro.perf.bench` drives micro-benchmarks over them and emits
``BENCH_*.json`` sidecars consumed by the perf-regression test harness
(``tests/test_perf_regression.py``) and CI.
"""

from repro.perf import kernels

__all__ = ["kernels"]
