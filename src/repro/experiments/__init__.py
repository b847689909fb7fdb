"""Experiment harness: one module per figure of the paper's §V.

Each ``fig*`` module exposes a ``run_*`` function that executes the
experiment at (scaled-down but ratio-faithful) configurations and
returns structured rows, plus a ``main()`` that prints the same
series the paper plots.  ``benchmarks/`` wraps these with
pytest-benchmark and asserts the paper's shape claims.

Representative-rank methodology (see DESIGN.md): runs at paper scales
simulate ``R`` representative MPI ranks standing for ``P`` logical
ranks.  Per-rank quantities (output volume, staging load, NIC traffic)
are kept at full scale; collective cost models price the logical
``P``-rank job via ``World.model_size``; machine-wide shared resources
(file-system aggregate bandwidth) are scaled by ``R/P`` so each
representative's share is faithful.
"""

from repro.experiments.report import format_table
from repro.experiments.runner import (
    GTCRunResult,
    Pixie3DRunResult,
    gtc_operators,
    run_gtc,
    run_pixie3d,
)

__all__ = [
    "GTCRunResult",
    "Pixie3DRunResult",
    "format_table",
    "gtc_operators",
    "run_gtc",
    "run_pixie3d",
]
