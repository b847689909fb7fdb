"""Kernel benchmark: production bodies vs their ``NAIVE`` references, guarded.

Acceptance floor (ISSUE 5): at 1M elements the vectorized histogram,
2-D histogram and WAH bitmap encode must each hold >= 3x over naive.
The committed baseline pins each kernel's ratio far above the floor;
:func:`repro.perf.bench.compare` fails the run on a > 20 % slide.
"""

from __future__ import annotations

import os

import pytest

from repro.perf import bench, kernels

pytestmark = pytest.mark.perf

#: full size by default; REPRO_PERF_N shrinks local smoke runs (the
#: acceptance floor below is only asserted at >= 1M elements)
N = int(os.environ.get("REPRO_PERF_N", "1000000"))


def test_kernel_speedups_hold(bench_guard):
    record = bench_guard("kernels", bench.bench_kernels(n=N))
    assert set(record["kernels"]) == set(kernels.NAIVE)
    if N >= 1_000_000:
        for name in bench.HOT_KERNELS:
            speedup = record["kernels"][name]["speedup"]
            assert speedup >= 3.0, (
                f"acceptance floor: {name} vectorized only {speedup:.2f}x naive"
            )
