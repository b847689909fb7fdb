"""Regenerate every table/figure of the paper's evaluation in one run.

Usage::

    python -m repro.experiments.run_all          # full scales
    python -m repro.experiments.run_all --fast   # trimmed runs

Prints the Fig. 7/8/9/10/11 series and the headline paper-vs-measured
table of :mod:`repro.experiments.claims`; this output is the source of EXPERIMENTS.md.
"""

from __future__ import annotations

import time

from repro.experiments import claims, fig7, fig8, fig9, fig10, fig11
from repro.experiments.cli import command_parser
from repro.experiments.runner import FAST_FIG7, FAST_FIG8

__all__ = ["run_all", "cli"]


def run_all(fast: bool = False) -> None:
    """Run every figure experiment and the headline table in sequence."""
    t_start = time.time()

    def banner(name: str) -> None:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")

    gtc_scales = [512, 2048, 16384] if fast else [512, 1024, 2048, 4096, 8192, 16384]

    banner("Fig. 7 — individual operations, In-Compute-Node vs Staging")
    fig7.main(scales=gtc_scales, **(FAST_FIG7 if fast else {}))

    banner("Fig. 8 — GTC simulation performance")
    fig8.main(scales=gtc_scales, **(FAST_FIG8 if fast else {}))

    banner("Fig. 9 — DataSpaces setup / hashing / query time")
    fig9.main([32, 64, 128, 256])

    banner("Fig. 10 — Pixie3D simulation performance")
    pixie_scales = [256, 1024, 4096] if fast else [256, 512, 1024, 2048, 4096]
    fig10.main(scales=pixie_scales)

    banner("Fig. 11 — merged vs unmerged read performance")
    fig11.main(rep_cores=256)

    banner("Headline §V numbers — paper vs measured")
    claims.main(fast=fast)

    print(f"\n[run_all completed in {time.time() - t_start:.1f} s wall]")


def cli(argv: list[str] | None = None) -> None:
    """``python -m repro run-all``: parse ``--fast`` and run the full sweep."""
    p = command_parser("run-all", "every figure of the evaluation + the headline numbers")
    p.add_argument("--fast", action="store_true",
                   help="trimmed runs (shorter simulated intervals)")
    run_all(fast=p.parse_args(argv).fast)


if __name__ == "__main__":
    cli()
