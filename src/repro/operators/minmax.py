"""Global min/max characterisation operator.

The canonical example of PreDatA's compute-node first pass (§IV.B):
``Partial_calculate`` reduces each process's chunk to a tiny
``(min, max, count)`` triple; the aggregation stage combines the
triples into global statistics *before any bulk data moves*, making
the result available to every other operator's ``Initialize()`` through
the aggregated-results channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.adios.group import OutputStep
from repro.core.operator import OperatorContext, PreDatAOperator
from repro.perf import kernels

__all__ = ["MinMaxOperator", "MinMaxResult"]


@dataclass(frozen=True)
class MinMaxResult:
    """Global per-column statistics of a 2-D variable."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    count: int

    def column(self, i: int) -> tuple[float, float]:
        """The (min, max) pair of column *i*."""
        return self.mins[i], self.maxs[i]


class MinMaxOperator(PreDatAOperator):
    """Computes global per-column min/max/count of a 2-D array var.

    Parameters
    ----------
    var: group variable holding an ``(n, k)`` array per process.
    """

    def __init__(self, var: str):
        self.var = var
        self.name = f"minmax:{var}"

    # -- pass 1 ---------------------------------------------------------
    def partial_calculate(self, step: OutputStep) -> Any:
        data = np.atleast_2d(np.asarray(step.values[self.var]))
        if data.size == 0:
            return None
        mins, maxs = kernels.column_minmax(data)
        return (mins.tolist(), maxs.tolist(), int(data.shape[0]))

    def partial_flops(self, step: OutputStep) -> float:
        # one compare per element, twice (min and max), at logical scale
        return 2.0 * step.nbytes_logical / 8.0

    # -- stage 2 ---------------------------------------------------------
    def aggregate(self, partials: list[Any]) -> Optional[MinMaxResult]:
        partials = [p for p in partials if p is not None]
        if not partials:
            return None
        mins = np.min([p[0] for p in partials], axis=0)
        maxs = np.max([p[1] for p in partials], axis=0)
        count = int(sum(p[2] for p in partials))
        return MinMaxResult(tuple(mins.tolist()), tuple(maxs.tolist()), count)

    # -- stage 4: nothing to stream; publish the aggregate -----------------
    def map_flops(self, step: OutputStep) -> float:
        return 0.0

    def finalize(
        self, ctx: OperatorContext, reduced: dict
    ) -> Optional[MinMaxResult]:
        return ctx.aggregated

    def logical_fraction_shuffled(self) -> float:
        return 0.0
