"""1-D histogram operator (GTC online monitoring, Fig. 7(b)(e)).

Computation-dominant (§V.B.1): each chunk is scanned once to bin one
particle attribute; the shuffle moves only per-bin count vectors
(kilobytes), and a single reducer rank owns the global histogram, which
Finalize writes as the ~8 MB histogram file whose synchronous write
variability (0.25 s–7 s) motivates the Staging placement.

Bin edges come from the aggregation stage: ``Partial_calculate``
supplies local min/max so edges are global before streaming starts.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

import numpy as np

from repro.adios.group import OutputStep
from repro.core.operator import Emit, OperatorContext, PreDatAOperator
from repro.machine.filesystem import ParallelFileSystem
from repro.perf import kernels

__all__ = ["HistogramOperator"]

#: size of a histogram result file (paper: 8 MB)
OUTPUT_BYTES = 8e6


class HistogramOperator(PreDatAOperator):
    """Histogram of one column of a 2-D array variable.

    Parameters
    ----------
    var: group variable holding ``(n, k)`` arrays.
    column: attribute index to histogram.
    bins: number of bins.
    filesystem: when given, Finalize writes the histogram file
        (:data:`OUTPUT_BYTES`) through it — the visible-I/O effect the
        paper measures in the In-Compute-Node configuration.
    """

    _TAG = "hist"

    def __init__(
        self,
        var: str,
        column: int,
        bins: int = 1000,
        *,
        name: Optional[str] = None,
        filesystem: Optional[ParallelFileSystem] = None,
    ):
        if bins < 1:
            raise ValueError("bins must be >= 1")
        self.var = var
        self.column = column
        self.bins = bins
        self.name = name or f"hist:{var}[{column}]"
        self.filesystem = filesystem

    # -- pass 1: local min/max for global edges -------------------------
    def partial_calculate(self, step: OutputStep) -> Any:
        col = np.atleast_2d(step.values[self.var])[:, self.column]
        if col.size == 0:
            return None
        return (float(col.min()), float(col.max()))

    def partial_flops(self, step: OutputStep) -> float:
        return 2.0 * self._n_logical(step)

    def aggregate(self, partials: list[Any]) -> Any:
        partials = [p for p in partials if p is not None]
        if not partials:
            return None
        lo = min(p[0] for p in partials)
        hi = max(p[1] for p in partials)
        if lo == hi:
            hi = lo + 1.0
        return np.linspace(lo, hi, self.bins + 1)

    # -- stage 4 -----------------------------------------------------------
    def initialize(self, ctx: OperatorContext) -> None:
        if ctx.aggregated is None:
            raise RuntimeError(f"{self.name}: no bin edges aggregated")
        ctx.storage["edges"] = ctx.aggregated

    def map(self, ctx: OperatorContext, step: OutputStep) -> Iterable[Emit]:
        edges = ctx.storage["edges"]
        col = np.atleast_2d(step.values[self.var])[:, self.column]
        return [Emit(self._TAG, kernels.histogram1d(col, edges))]

    def map_flops(self, step: OutputStep) -> float:
        # binning: ~4 flops per element (subtract, scale, floor, add)
        return 4.0 * self._n_logical(step)

    def combine(self, ctx: OperatorContext, items: list[Emit]) -> list[Emit]:
        if len(items) < 2:
            return items  # nothing to sum: the lone item goes as it is
        total = items[0].value.copy()
        for e in items[1:]:
            total += e.value
        return [Emit(self._TAG, total)]

    def reduce(self, ctx: OperatorContext, tag: Any, values: list[Any]) -> Any:
        """Sum count vectors (an empty bucket sums to all-zero counts)."""
        if not values:
            return np.zeros(self.bins, dtype=np.int64)
        total = values[0].copy()
        for v in values[1:]:
            total += v
        return total

    def reduce_flops(self, ctx, tag: Any, values: list[Any]) -> float:
        # summing count vectors is cheap and does NOT scale with the
        # data volume, so the true (unscaled) cost is returned.
        return float(len(values) * self.bins)

    def finalize(self, ctx: OperatorContext, reduced: dict):
        counts = reduced.get(self._TAG)
        if counts is None:
            return None  # this rank does not own the histogram tag
        edges = ctx.storage["edges"]
        if self.filesystem is not None:
            # generator finalize: visible simulated I/O
            def body():
                yield from self.filesystem.write(OUTPUT_BYTES)
                return {"counts": counts, "edges": edges}

            return body()
        return {"counts": counts, "edges": edges}

    def logical_fraction_shuffled(self) -> float:
        return 0.0  # only count vectors move

    # -- helpers ------------------------------------------------------------
    def _n_logical(self, step: OutputStep) -> float:
        data = np.atleast_2d(step.values[self.var])
        return data.shape[0] * step.volume_scale
