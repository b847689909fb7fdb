"""Experiment harness: one module per figure of the paper's §V.

Each ``fig*`` module exposes a ``run_*`` function that executes the
experiment at (scaled-down but ratio-faithful) configurations and
returns structured rows, a ``table(rows)`` that formats them as the
paper plots them, and a ``main()`` that runs and prints.  The paper's
§V claims are data in ``claims``: each names the figure runs it reads
and its threshold; the ``headline`` command and
``benchmarks/test_claims.py`` are views of that registry.  Neither the
figure modules nor ``claims`` is imported here, so importing
``experiments.runner`` stays cheap.

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
