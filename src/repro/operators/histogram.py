"""Histogram operator over one or two columns (GTC, Fig. 7(b)(c)(e)(f)).

Computation-dominant (§V.B.1): each chunk is scanned once to bin one
particle attribute (online monitoring) or an attribute pair (the 2-D
histogram behind parallel-coordinates visualisation [21]); the shuffle
moves only count arrays (kilobytes), and a single reducer rank owns
the global histogram, which Finalize writes as the ~8 MB histogram file
whose synchronous write variability (0.25 s–7 s) motivates the Staging
placement.  The 2-D case needs quadratically more bins, hence more
computation and communication, with the same placement conclusions.

Map and Combine hold a partial as its nonzero :class:`Cells`: a chunk
of 64 particles fills at most 64 of a 256 x 256 grid's 65 536 cells.
The model still prices what the paper ships, the dense int64 count
array (``Cells.nbytes``), so shuffle bytes and times are those of the
dense partial; Reduce returns the dense ``bins``-shaped counts.

Bin edges come from the aggregation stage: ``Partial_calculate``
supplies local min/max (:func:`column_ranges`) so edges are global
(:func:`global_edges`) before streaming starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.adios.group import OutputStep
from repro.core.operator import Emit, OperatorContext, PreDatAOperator
from repro.machine.filesystem import ParallelFileSystem
from repro.perf import kernels

__all__ = ["Cells", "HistogramOperator", "column_ranges", "global_edges", "merge_cells"]

#: size of a histogram result file (paper: 8 MB)
OUTPUT_BYTES = 8e6


@dataclass(frozen=True, slots=True)
class Cells:
    """A histogram partial as its nonzero cells.

    ``index`` holds C-order flat cell indexes, ascending and distinct,
    ``counts`` their int64 counts, and ``shape`` the dense grid.
    ``nbytes`` is the dense int64 array's size: the wire prices what the
    paper ships, the host holds what the value contains.
    """

    index: np.ndarray
    counts: np.ndarray
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * 8

    def dense(self) -> np.ndarray:
        """The int64 counts as a ``shape``-d array."""
        out = np.zeros(math.prod(self.shape), dtype=np.int64)
        out[self.index] = self.counts
        return out.reshape(self.shape)


def merge_cells(cells: Sequence[Cells], shape: tuple[int, ...]) -> Cells:
    """The cell-wise sum of *cells* over the grid *shape*, exact in int64
    (no cells sum to none)."""
    index = np.concatenate([np.empty(0, np.int64)] + [c.index for c in cells])
    counts = np.concatenate([np.empty(0, np.int64)] + [c.counts for c in cells])
    order = np.argsort(index, kind="stable")
    index, counts = index[order], counts[order]
    first = np.flatnonzero(np.diff(index, prepend=-1))  # each run's start
    return Cells(index[first], np.add.reduceat(counts, first), shape)


def column_ranges(values: Any, columns: Sequence[int]) -> Optional[tuple[float, ...]]:
    """Pass 1 of global binning: ``(min0, max0, min1, max1, ...)`` of the
    *columns* of a 2-D array, or None for an empty chunk."""
    data = np.atleast_2d(values)
    if data.shape[0] == 0:
        return None
    out: list[float] = []
    for c in columns:
        out += (float(data[:, c].min()), float(data[:, c].max()))
    return tuple(out)


def global_edges(partials: list[Any], bins: Sequence[int]) -> Optional[tuple[np.ndarray, ...]]:
    """One ``linspace`` edge array per column over every partial's range
    (a degenerate range is widened by 1.0); None if every chunk was empty."""
    partials = [p for p in partials if p is not None]
    if not partials:
        return None
    edges = []
    for i, nbins in enumerate(bins):
        lo = min(p[2 * i] for p in partials)
        hi = max(p[2 * i + 1] for p in partials)
        if lo == hi:
            hi = lo + 1.0
        edges.append(np.linspace(lo, hi, nbins + 1))
    return tuple(edges)


class HistogramOperator(PreDatAOperator):
    """Histogram of one column, or joint histogram of two, of a 2-D array
    variable.

    Parameters
    ----------
    var: group variable holding ``(n, k)`` arrays.
    columns: one or two attribute indexes.
    bins: one bin count per column.
    filesystem: when given, Finalize writes the histogram file
        (:data:`OUTPUT_BYTES`) through it — the visible-I/O effect the
        paper measures in the In-Compute-Node configuration.

    The result is ``{"counts", "edges"}``: over one column ``counts`` has
    shape ``(bins,)`` and ``edges`` is one array; over two, ``counts`` is
    ``bins``-shaped and ``edges`` a pair.
    """

    def __init__(
        self,
        var: str,
        columns: Sequence[int],
        bins: Sequence[int],
        *,
        name: Optional[str] = None,
        filesystem: Optional[ParallelFileSystem] = None,
    ):
        columns, bins = tuple(columns), tuple(bins)
        if len(columns) not in (1, 2):
            raise ValueError("a histogram has one or two columns")
        if len(bins) != len(columns):
            raise ValueError("bins must give one count per column")
        if min(bins) < 1:
            raise ValueError("bins must be >= 1")
        self.var = var
        self.columns = columns
        self.bins = bins
        self.tag = "hist" if len(columns) == 1 else "hist2d"
        self.name = name or f"{self.tag}:{var}[{','.join(map(str, columns))}]"
        self.filesystem = filesystem

    # -- pass 1: local min/max for global edges -------------------------
    def partial_calculate(self, step: OutputStep) -> Any:
        return column_ranges(step.values[self.var], self.columns)

    def partial_flops(self, step: OutputStep) -> float:
        return 2.0 * len(self.columns) * step.rows_logical(self.var)

    def aggregate(self, partials: list[Any]) -> Any:
        return global_edges(partials, self.bins)

    # -- stage 4 -----------------------------------------------------------
    def initialize(self, ctx: OperatorContext) -> None:
        if ctx.aggregated is None:
            raise RuntimeError(f"{self.name}: no bin edges aggregated")
        ctx.storage["edges"] = ctx.aggregated

    def map(self, ctx: OperatorContext, step: OutputStep) -> Iterable[Emit]:
        data = np.atleast_2d(step.values[self.var])
        cols = [data[:, c] for c in self.columns]
        index, counts = kernels.histogram_cells(cols, ctx.storage["edges"])
        return [Emit(self.tag, Cells(index, counts, self.bins))]

    def map_flops(self, step: OutputStep) -> float:
        # binning: ~4 flops per element and column (subtract, scale,
        # floor, add)
        return 4.0 * len(self.columns) * step.rows_logical(self.var)

    def combine(self, ctx: OperatorContext, items: list[Emit]) -> list[Emit]:
        if len(items) < 2:
            return items  # nothing to sum: the lone item goes as it is
        return [Emit(self.tag, merge_cells([e.value for e in items], self.bins))]

    def reduce(self, ctx: OperatorContext, tag: Any, values: list[Any]) -> Any:
        """The dense int64 sum of the cells (an empty bucket is all-zero)."""
        return merge_cells(values, self.bins).dense()

    def reduce_flops(self, ctx, tag: Any, values: list[Any]) -> float:
        # summing count arrays is cheap and does NOT scale with the
        # data volume, so the true (unscaled) cost is returned.
        return float(len(values) * math.prod(self.bins))

    def finalize(self, ctx: OperatorContext, reduced: dict):
        counts = reduced.get(self.tag)
        if counts is None:
            return None  # this rank does not own the histogram tag
        edges = ctx.storage["edges"]
        result = {"counts": counts, "edges": edges[0] if len(edges) == 1 else edges}
        if self.filesystem is not None:
            # generator finalize: visible simulated I/O
            def body():
                yield from self.filesystem.write(OUTPUT_BYTES)
                return result

            return body()
        return result

    def logical_fraction_shuffled(self) -> float:
        return 0.0  # only count arrays move
