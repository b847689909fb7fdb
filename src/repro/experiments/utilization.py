"""Staging-node utilization between dumps (§VI's premise).

"One observation is that the computational resources on staging nodes
are often under-utilized and the time intervals between I/O dumps are
sufficiently large for extra processing on buffered data."

This experiment quantifies that premise in the model: run GTC through
the Staging configuration and measure what fraction of each staging
node's core-seconds the pipeline actually consumed, and what fraction
of the I/O interval the pipeline occupied — the headroom PreDatA
exploits (and the slack available for even richer operators).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.cli import flagless_cli
from repro.experiments.report import fmt_pct, fmt_seconds, format_table
from repro.experiments.runner import FAST_FIG8, run_gtc

__all__ = ["UtilizationRow", "run_utilization", "table", "main", "cli"]


@dataclass
class UtilizationRow:
    cores: int
    io_interval: float
    pipeline_seconds: float  # staging wall time consumed per dump
    interval_occupancy: float  # pipeline / interval
    core_busy_fraction: float  # staging core-seconds used / available


def run_utilization(scales: list[int] | None = None, **run_kwargs) -> list[UtilizationRow]:
    """Measure staging occupancy of the sort pipeline for each scale."""
    rows = []
    for cores in scales or [512, 4096, 16384]:
        r = run_gtc(cores, "staging", "sort", **run_kwargs)
        rep = r.staging_reports[0]
        interval = (
            run_kwargs.get("iterations_per_dump", 4)
            * run_kwargs.get("compute_seconds_per_iteration", 27.0)
        )
        pipeline = rep.operation_time
        # core-seconds: the run's machine is discarded, so reconstruct
        # from the report — busy per staging node = pipeline compute
        # phases; the fetch phase occupies the NIC, not cores.
        busy = rep.map + rep.reduce + rep.finalize
        rows.append(
            UtilizationRow(
                cores=cores,
                io_interval=interval,
                pipeline_seconds=pipeline,
                interval_occupancy=pipeline / interval,
                core_busy_fraction=busy / interval,
            )
        )
    return rows


def table(rows: list[UtilizationRow]) -> str:
    """The staging-utilization table."""
    return format_table(
        ["cores", "I/O interval", "pipeline busy", "interval occupancy",
         "staging-core busy"],
        [
            [
                r.cores,
                fmt_seconds(r.io_interval),
                fmt_seconds(r.pipeline_seconds),
                fmt_pct(r.interval_occupancy),
                fmt_pct(r.core_busy_fraction),
            ]
            for r in rows
        ],
        title=("Staging-area utilization between dumps "
               "(the under-utilization premise, §VI)"),
    )


def main() -> str:
    """Print the utilization table; returns the formatted text."""
    text = table(run_utilization(**FAST_FIG8))
    print(text)
    return text


cli = flagless_cli("utilization", "staging-node headroom between dumps", main)

if __name__ == "__main__":
    cli()
