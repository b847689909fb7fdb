"""2-D histogram operator (Fig. 7(c)(f)).

Like the 1-D histogram but over an attribute pair, with quadratically
more bins — the paper notes the computation and communication
requirements are higher but the placement conclusions identical.
Used downstream for parallel-coordinates visualisation [21].
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

import numpy as np

from repro.adios.group import OutputStep
from repro.core.operator import Emit, OperatorContext, PreDatAOperator
from repro.machine.filesystem import ParallelFileSystem
from repro.operators.histogram import OUTPUT_BYTES
from repro.perf import kernels

__all__ = ["Histogram2DOperator"]


class Histogram2DOperator(PreDatAOperator):
    """Joint histogram of two columns of a 2-D array variable."""

    _TAG = "hist2d"

    def __init__(
        self,
        var: str,
        columns: tuple[int, int],
        bins: tuple[int, int] = (256, 256),
        *,
        name: Optional[str] = None,
        filesystem: Optional[ParallelFileSystem] = None,
    ):
        if len(columns) != 2:
            raise ValueError("columns must be a pair")
        if min(bins) < 1:
            raise ValueError("bins must be >= 1")
        self.var = var
        self.columns = tuple(columns)
        self.bins = tuple(bins)
        self.name = name or f"hist2d:{var}[{columns[0]},{columns[1]}]"
        self.filesystem = filesystem

    # -- pass 1 ------------------------------------------------------------
    def partial_calculate(self, step: OutputStep) -> Any:
        data = np.atleast_2d(step.values[self.var])
        if data.shape[0] == 0:
            return None
        cx, cy = self.columns
        return (
            float(data[:, cx].min()),
            float(data[:, cx].max()),
            float(data[:, cy].min()),
            float(data[:, cy].max()),
        )

    def partial_flops(self, step: OutputStep) -> float:
        return 4.0 * self._n_logical(step)

    def aggregate(self, partials: list[Any]) -> Any:
        partials = [p for p in partials if p is not None]
        if not partials:
            return None
        xlo = min(p[0] for p in partials)
        xhi = max(p[1] for p in partials)
        ylo = min(p[2] for p in partials)
        yhi = max(p[3] for p in partials)
        if xlo == xhi:
            xhi = xlo + 1.0
        if ylo == yhi:
            yhi = ylo + 1.0
        return (
            np.linspace(xlo, xhi, self.bins[0] + 1),
            np.linspace(ylo, yhi, self.bins[1] + 1),
        )

    # -- stage 4 --------------------------------------------------------------
    def initialize(self, ctx: OperatorContext) -> None:
        if ctx.aggregated is None:
            raise RuntimeError(f"{self.name}: no bin edges aggregated")
        ctx.storage["edges"] = ctx.aggregated

    def map(self, ctx: OperatorContext, step: OutputStep) -> Iterable[Emit]:
        ex, ey = ctx.storage["edges"]
        data = np.atleast_2d(step.values[self.var])
        cx, cy = self.columns
        return [Emit(self._TAG, kernels.histogram2d(data[:, cx], data[:, cy], ex, ey))]

    def map_flops(self, step: OutputStep) -> float:
        # two binnings plus a joint index per element
        return 8.0 * self._n_logical(step)

    def combine(self, ctx: OperatorContext, items: list[Emit]) -> list[Emit]:
        if len(items) < 2:
            return items  # nothing to sum: the lone item goes as it is
        total = items[0].value.copy()
        for e in items[1:]:
            total += e.value
        return [Emit(self._TAG, total)]

    def reduce(self, ctx: OperatorContext, tag: Any, values: list[Any]) -> Any:
        """Sum count matrices (an empty bucket sums to all-zero counts)."""
        if not values:
            return np.zeros(self.bins, dtype=np.int64)
        total = values[0].copy()
        for v in values[1:]:
            total += v
        return total

    def reduce_flops(self, ctx, tag: Any, values: list[Any]) -> float:
        # count-matrix sums: true cost, independent of data volume
        return float(len(values) * self.bins[0] * self.bins[1])

    def finalize(self, ctx: OperatorContext, reduced: dict):
        counts = reduced.get(self._TAG)
        if counts is None:
            return None
        edges = ctx.storage["edges"]
        if self.filesystem is not None:

            def body():
                yield from self.filesystem.write(OUTPUT_BYTES)
                return {"counts": counts, "edges": edges}

            return body()
        return {"counts": counts, "edges": edges}

    def logical_fraction_shuffled(self) -> float:
        return 0.0

    def _n_logical(self, step: OutputStep) -> float:
        data = np.atleast_2d(step.values[self.var])
        return data.shape[0] * step.volume_scale
