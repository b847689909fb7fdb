"""Kernel registry: selectable hot-path implementations.

Every measured hot path in the pipeline (histogram binning, WAH bitmap
run-length coding, sample-sort splitter selection and row partitioning,
array-merge chunk stitching) exists in two registered variants:

- ``naive`` — the straightforward reference implementation (per-element
  Python loops or the pre-optimisation code path).  This is the oracle
  baseline: slow, obviously correct, and kept forever so the
  differential checks in :mod:`repro.check` can compare against it.
- ``vectorized`` — the numpy fast path the pipeline actually runs.

The two variants of a kernel must be *bit-for-bit* interchangeable: the
property tests in ``tests/test_kernel_properties.py`` drive adversarial
inputs through both and assert exact agreement, and the
flag-matrix fingerprint test proves a full pipeline run is
byte-identical under either selection.

Selection is process-global (the simulation is single-threaded):
``REGISTRY.variant`` defaults to ``vectorized``, the environment
variable ``REPRO_KERNELS`` overrides the default at import, and
``REGISTRY.use("naive")`` switches temporarily::

    from repro.perf import REGISTRY

    with REGISTRY.use("naive"):
        counts = kernels.histogram1d(values, edges)
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

__all__ = ["VARIANTS", "KernelRegistry", "REGISTRY", "use_kernels", "kernel_variant"]

VARIANTS = ("naive", "vectorized")


class KernelRegistry:
    """Name -> variant -> implementation table with an active variant."""

    def __init__(self, variant: str = "vectorized"):
        self._check_variant(variant)
        self._impls: dict[tuple[str, str], Callable] = {}
        self._variant = variant

    @staticmethod
    def _check_variant(variant: str) -> None:
        if variant not in VARIANTS:
            raise ValueError(
                f"unknown kernel variant {variant!r}; expected one of {VARIANTS}"
            )

    # -- selection -------------------------------------------------------
    @property
    def variant(self) -> str:
        """The active variant; :meth:`get` resolves against it."""
        return self._variant

    def set_variant(self, variant: str) -> None:
        """Switch the active variant for the rest of the process."""
        self._check_variant(variant)
        self._variant = variant

    @contextmanager
    def use(self, variant: str) -> Iterator["KernelRegistry"]:
        """Temporarily switch the active variant."""
        self._check_variant(variant)
        saved, self._variant = self._variant, variant
        try:
            yield self
        finally:
            self._variant = saved

    # -- registration ----------------------------------------------------
    def register(self, name: str, variant: str) -> Callable[[Callable], Callable]:
        """Decorator registering one implementation of kernel *name*."""
        self._check_variant(variant)

        def deco(fn: Callable) -> Callable:
            key = (name, variant)
            if key in self._impls:
                raise ValueError(f"kernel {name!r} variant {variant!r} already registered")
            self._impls[key] = fn
            return fn

        return deco

    def get(self, name: str, variant: Optional[str] = None) -> Callable:
        """Implementation of *name* in *variant* (default: active)."""
        v = variant or self._variant
        try:
            return self._impls[(name, v)]
        except KeyError:
            raise KeyError(f"no kernel {name!r} in variant {v!r}") from None

    def names(self) -> list[str]:
        """Sorted kernel names with at least one registered variant."""
        return sorted({n for n, _v in self._impls})

    def variants_of(self, name: str) -> list[str]:
        """Variants registered for kernel *name*, in VARIANTS order."""
        return [v for v in VARIANTS if (name, v) in self._impls]


def _default_variant() -> str:
    env = os.environ.get("REPRO_KERNELS", "").strip()
    if not env:
        return "vectorized"
    if env not in VARIANTS:
        raise ValueError(
            f"REPRO_KERNELS={env!r} is not a kernel variant; expected one of {VARIANTS}"
        )
    return env


#: process-global registry used by the operators in :mod:`repro.operators`
REGISTRY = KernelRegistry(_default_variant())

#: module-level conveniences mirroring the registry methods
use_kernels = REGISTRY.use


def kernel_variant() -> str:
    """The currently active kernel variant."""
    return REGISTRY.variant
