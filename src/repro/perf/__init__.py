"""Hot-path performance layer: selectable operator kernels + benchmarks.

Three hot paths of the reproduction have dedicated fast
implementations:

- :mod:`repro.perf.kernels` — vectorized numpy kernels for histogram
  binning, WAH bitmap coding, sample-sort splitter selection /
  partitioning, and array-merge chunk stitching, registered next to
  their ``naive`` reference twins in :data:`REGISTRY`;
- zero-copy FFS packing (:class:`repro.ffs.PackBuffer`,
  :func:`repro.ffs.encode_into`) used by the compute-side client;
- per-node batched :meth:`~repro.core.scheduler.MovementScheduler.wait_clear`
  wakeups and numpy :class:`~repro.core.accounting.RankLedger`
  bookkeeping, swept to 100k ranks by :mod:`repro.perf.scale`.

Only the kernels are selectable (their ``naive`` twins are the oracle
the differential tests compare against); the other two have exactly one
implementation.  :mod:`repro.perf.bench` drives micro-benchmarks over
them and emits ``BENCH_*.json`` sidecars consumed by the
perf-regression test harness (``tests/test_perf_regression.py``) and CI.
"""

from repro.perf.registry import (
    REGISTRY,
    VARIANTS,
    KernelRegistry,
    kernel_variant,
    use_kernels,
)
from repro.perf import kernels  # noqa: E402  (registers naive + vectorized)

__all__ = [
    "kernels",
    "REGISTRY",
    "VARIANTS",
    "KernelRegistry",
    "kernel_variant",
    "use_kernels",
]
