"""Data-reduction operators (§III: "filtering and reduction").

Two Stage-1a reducers that shrink output *before* it leaves the
compute node — the placement where reduction pays twice (less data to
move, less to store; §II.C: "Performance advantages result if
In-Compute-Node actions reduce output volumes"):

- :class:`SubsampleOperator` — keep every k-th row (or a seeded random
  fraction) of a 2-D variable; the related-work sampling service [47]
  as a PreDatA first-pass operation;
- :class:`PrecisionReduceOperator` — demote float64 arrays to float32
  for variables whose analysis tolerates it, halving their volume.

Both mutate the step in ``partial_calculate`` (before Stage-1b
packing, like :class:`~repro.operators.filter.FilterOperator`) and
report achieved reduction ratios.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.adios.group import OutputStep
from repro.core.operator import OperatorContext, PreDatAOperator
from repro.operators.filter import RowSelectOperator

__all__ = ["SubsampleOperator", "PrecisionReduceOperator"]


class SubsampleOperator(RowSelectOperator):
    """Keeps a fraction of a 2-D variable's rows: every
    ``round(1/fraction)``-th row (deterministic, preserves temporal
    ordering).

    Parameters
    ----------
    var: group variable holding ``(n, k)`` arrays.
    fraction: target fraction of rows to keep, in (0, 1].
    """

    RESULT_KEY = "global_rows"

    def __init__(self, var: str, fraction: float):
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.var = var
        self.fraction = fraction
        self.name = f"subsample:{var}"

    def select(self, data: np.ndarray) -> np.ndarray:
        """Every ``round(1/fraction)``-th row of *data*, from the first."""
        return data[:: max(round(1.0 / self.fraction), 1)]

    def partial_flops(self, step: OutputStep) -> float:
        return step.rows_logical(self.var)

    def logical_fraction_shuffled(self) -> float:
        return self.fraction


class PrecisionReduceOperator(PreDatAOperator):
    """Demotes float64 variables to float32 before packing.

    Halves the wire and storage volume of each listed variable; the
    achieved error is bounded by float32's ~7 significant digits,
    acceptable for visualisation-bound fields.
    """

    name = "precision_reduce"

    def __init__(self, variables: list[str]):
        if not variables:
            raise ValueError("need at least one variable")
        self.variables = list(variables)
        self.bytes_in = 0
        self.bytes_out = 0

    def partial_calculate(self, step: OutputStep) -> Any:
        saved = 0
        for var in self.variables:
            data = np.asarray(step.values[var])
            if data.dtype == np.float64:
                self.bytes_in += data.nbytes
                demoted = data.astype(np.float32)
                self.bytes_out += demoted.nbytes
                saved += data.nbytes - demoted.nbytes
                step.values[var] = demoted
        return saved

    def partial_flops(self, step: OutputStep) -> float:
        return sum(
            np.asarray(step.values[v]).size for v in self.variables
        ) * step.volume_scale

    def aggregate(self, partials: list[Any]) -> Any:
        return int(sum(p for p in partials if p is not None))

    def map_flops(self, step: OutputStep) -> float:
        return 0.0

    def finalize(self, ctx: OperatorContext, reduced: dict):
        return {"global_bytes_saved": ctx.aggregated}

    @property
    def compression_ratio(self) -> float:
        return self.bytes_in / self.bytes_out if self.bytes_out else 1.0

    def logical_fraction_shuffled(self) -> float:
        return 0.0
