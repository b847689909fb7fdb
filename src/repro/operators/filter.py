"""Compute-node-side filtering (a Stage-1a data-reduction example).

§IV.B lists "filtering out undesired regions" as a canonical
``Partial_calculate`` use: the first pass prunes rows locally (a
deterministic, communication-free operation), shrinking the data that
crosses the network.  This operator filters rows of a 2-D variable by
a column-range predicate; the surviving rows simply flow through
Map/Reduce untouched, tagged by producing rank.  :class:`RowSelectOperator`
is that tail, shared with
:class:`~repro.operators.reduction.SubsampleOperator`.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.adios.group import OutputStep
from repro.core.operator import Emit, OperatorContext, PreDatAOperator

__all__ = ["FilterOperator", "RowSelectOperator"]


class RowSelectOperator(PreDatAOperator):
    """The shared tail of the Stage-1a row selectors.

    ``select`` prunes the rows of 2-D variable ``var`` in
    :meth:`partial_calculate` — on the compute node, before packing —
    and the packed chunk must carry the pruned data, so the step's
    values are replaced in place (matching the ADIOS hook semantics
    where stage 1a runs before stage 1b packing).  The kept rows then
    flow through Map/Reduce untouched, tagged by producing rank, and
    Finalize returns them with the global kept count under
    :attr:`RESULT_KEY`.  Subclasses set ``var`` and supply
    ``select(data)`` (the kept rows of one ``(n, k)`` chunk) and
    ``partial_flops``.
    """

    RESULT_KEY = "global_kept"

    def partial_calculate(self, step: OutputStep) -> Any:
        kept = self.select(np.atleast_2d(step.values[self.var]))
        step.values[self.var] = kept
        return int(kept.shape[0])

    def aggregate(self, partials: list[Any]) -> Any:
        return int(sum(p for p in partials if p is not None))

    def map(self, ctx: OperatorContext, step: OutputStep) -> Iterable[Emit]:
        return [Emit(ctx.rank, np.atleast_2d(step.values[self.var]))]

    def map_flops(self, step: OutputStep) -> float:
        return 0.0  # selection already charged in pass 1

    def partition(self, ctx: OperatorContext, tag: Any) -> int:
        return int(tag)

    def reduce(self, ctx: OperatorContext, tag: Any, values: list[Any]) -> Any:
        return np.concatenate(values, axis=0) if values else np.empty((0,))

    def finalize(self, ctx: OperatorContext, reduced: dict):
        return {
            "rows": reduced.get(ctx.rank, np.empty((0,))),
            self.RESULT_KEY: ctx.aggregated,
        }


class FilterOperator(RowSelectOperator):
    """Keeps rows whose *column* value lies in ``[lo, hi]``."""

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

    def select(self, data: np.ndarray) -> np.ndarray:
        """The rows of *data* in range, counted into ``rows_in``/``rows_out``."""
        col = data[:, self.column]
        kept = data[(col >= self.lo) & (col <= self.hi)]
        self.rows_in += int(data.shape[0])
        self.rows_out += int(kept.shape[0])
        return kept

    def partial_flops(self, step: OutputStep) -> float:
        return 2.0 * step.rows_logical(self.var)

    @property
    def selectivity(self) -> float:
        """Fraction of rows kept so far (1.0 before any data seen)."""
        return self.rows_out / self.rows_in if self.rows_in else 1.0
