"""Fig. 7 — timing of individual operations, both placements.

Reproduces Fig. 7(a)-(f): for each GTC operation (sort, histogram,
2-D histogram) and each scale from 512 to 16,384 compute cores, the
operation's time broken into computation / communication / I/O in the
In-Compute-Node configuration, and the staging-pipeline phase times +
completion latency in the Staging configuration.

Paper shape claims this experiment reproduces:

- sorting is communication-dominant; its In-Compute-Node cost grows
  with scale and is visible to the simulation, while the Staging cost
  stays bounded (paper: <= ~33 s) and well inside the 120 s I/O
  interval — at the price of ~2 orders of magnitude more latency;
- histograms are computation-dominant with a visible result-file
  write in the In-Compute-Node configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.cli import command_parser
from repro.experiments.report import fmt_seconds, format_table
from repro.experiments.runner import FAST_FIG7, gtc_scales, run_gtc

__all__ = ["Fig7Row", "run_fig7", "main", "cli", "OPERATIONS"]

OPERATIONS = ("sort", "histogram", "histogram2d")


@dataclass
class Fig7Row:
    """One (scale, placement) measurement of an operation."""

    cores: int
    placement: str
    compute: float
    communicate: float
    io: float
    movement: float  # staging-side data fetch (0 for in-compute)
    total: float  # operation time (excl. movement), the Fig. 7 y-axis
    latency: float  # dump start -> results available


def run_fig7(
    operation: str,
    scales: list[int] | None = None,
    **run_kwargs,
) -> list[Fig7Row]:
    """Run one operation across scales in both placements."""
    rows: list[Fig7Row] = []
    for cores in scales or gtc_scales():
        ic = run_gtc(cores, "incompute", operation, **run_kwargs)
        compute = sum(t.compute for t in ic.in_compute_timings.values())
        communicate = sum(t.communicate for t in ic.in_compute_timings.values())
        io = sum(t.io for t in ic.in_compute_timings.values())
        total = compute + communicate + io
        rows.append(
            Fig7Row(
                cores, "incompute",
                compute, communicate, io, 0.0, total, latency=total,
            )
        )
        st = run_gtc(cores, "staging", operation, **run_kwargs)
        rep = st.staging_reports[0]
        op_time = (
            rep.map + rep.shuffle + rep.reduce + rep.finalize + rep.aggregate
        )
        rows.append(
            Fig7Row(
                cores,
                "staging",
                compute=rep.map + rep.reduce + rep.finalize,
                communicate=rep.shuffle + rep.aggregate,
                io=st.metrics.io_blocking / max(len(st.staging_reports), 1),
                movement=rep.fetch,
                total=op_time,
                latency=rep.latency,
            )
        )
    return rows


def main(scales: list[int] | None = None, **run_kwargs) -> str:
    """Print the Fig. 7 series; returns the formatted text."""
    blocks = []
    for op in OPERATIONS:
        rows = run_fig7(op, scales, **run_kwargs)
        table = format_table(
            ["cores", "config", "compute", "communicate", "io",
             "movement", "op time", "latency"],
            [
                [
                    r.cores,
                    r.placement,
                    fmt_seconds(r.compute),
                    fmt_seconds(r.communicate),
                    fmt_seconds(r.io),
                    fmt_seconds(r.movement),
                    fmt_seconds(r.total),
                    fmt_seconds(r.latency),
                ]
                for r in rows
            ],
            title=f"Fig. 7 — {op} operation (In-Compute-Node vs Staging)",
        )
        blocks.append(table)
    text = "\n\n".join(blocks)
    print(text)
    return text


def cli(argv: list[str] | None = None) -> None:
    """``python -m repro fig7``: parse ``--fast``, run :func:`main`."""
    p = command_parser("fig7", "Fig. 7 — individual operations")
    p.add_argument("--fast", action="store_true", help="trimmed runs")
    main(**(FAST_FIG7 if p.parse_args(argv).fast else {}))


if __name__ == "__main__":
    cli()
