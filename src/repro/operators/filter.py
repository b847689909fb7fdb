"""Compute-node-side filtering (a Stage-1a data-reduction example).

§IV.B lists "filtering out undesired regions" as a canonical
``Partial_calculate`` use: the first pass prunes rows locally (a
deterministic, communication-free operation), shrinking the data that
crosses the network.  This operator filters rows of a 2-D variable by
a column-range predicate; the surviving rows simply flow through
Map/Reduce untouched, tagged by producing rank.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

from repro.adios.group import OutputStep
from repro.core.operator import Emit, OperatorContext, PreDatAOperator

__all__ = ["FilterOperator"]


class FilterOperator(PreDatAOperator):
    """Keeps rows whose *column* value lies in ``[lo, hi]``.

    The filter itself runs in :meth:`partial_calculate` conceptually —
    on the compute node, before packing — but since the packed chunk
    must carry the filtered data, the pruning is applied in-place on
    the step's values there (this mutates the OutputStep, matching the
    ADIOS hook semantics where stage 1a runs before stage 1b packing).
    """

    def __init__(
        self,
        var: str,
        column: int,
        lo: float,
        hi: float,
    ):
        if hi < lo:
            raise ValueError("filter range inverted")
        self.var = var
        self.column = column
        self.lo = lo
        self.hi = hi
        self.name = f"filter:{var}[{column}]"
        self.rows_in = 0
        self.rows_out = 0

    def partial_calculate(self, step: OutputStep) -> Any:
        data = np.atleast_2d(step.values[self.var])
        col = data[:, self.column]
        keep = (col >= self.lo) & (col <= self.hi)
        self.rows_in += int(data.shape[0])
        self.rows_out += int(keep.sum())
        step.values[self.var] = data[keep]
        return int(keep.sum())

    def partial_flops(self, step: OutputStep) -> float:
        return 2.0 * self._n_logical(step)

    def aggregate(self, partials: list[Any]) -> Any:
        return int(sum(p for p in partials if p is not None))

    def map(self, ctx: OperatorContext, step: OutputStep) -> Iterable[Emit]:
        return [Emit(ctx.rank, np.atleast_2d(step.values[self.var]))]

    def map_flops(self, step: OutputStep) -> float:
        return 0.0  # filtering already charged in pass 1

    def partition(self, ctx: OperatorContext, tag: Any) -> int:
        return int(tag)

    def reduce(self, ctx: OperatorContext, tag: Any, values: list[Any]) -> Any:
        return np.concatenate(values, axis=0) if values else np.empty((0,))

    def finalize(self, ctx: OperatorContext, reduced: dict):
        return {
            "rows": reduced.get(ctx.rank, np.empty((0,))),
            "global_kept": ctx.aggregated,
        }

    @property
    def selectivity(self) -> float:
        """Fraction of rows kept so far (1.0 before any data seen)."""
        return self.rows_out / self.rows_in if self.rows_in else 1.0

    def _n_logical(self, step: OutputStep) -> float:
        return np.atleast_2d(step.values[self.var]).shape[0] * step.volume_scale
