"""Fig. 10 — Pixie3D simulation performance, both configurations.

Fig. 10(b): total execution time breakdown for the In-Compute-Node
configuration (direct synchronous BP writes) vs the Staging
configuration (output staged through PreDatA, where the array-merge
operator reorganises the layout).  Fig. 10(a): total CPU cost.

Paper shape claims:

- the Staging configuration *slows* Pixie3D slightly (0.01 %–0.7 %):
  the reduce/bcast-dense inner loop leaves little computation to
  overlap, so asynchronous movement's interference outweighs the tiny
  hidden I/O time;
- the gap narrows as scale grows (I/O weighs more), trending toward a
  tipping point at larger jobs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.cli import flagless_cli
from repro.experiments.report import fmt_pct, fmt_seconds, format_table
from repro.experiments.runner import pixie3d_scales, run_pixie3d

__all__ = ["Fig10Row", "run_fig10", "main", "cli"]


@dataclass
class Fig10Row:
    cores: int
    total_incompute: float
    total_staging: float
    mainloop_incompute: float
    mainloop_staging: float
    io_incompute: float
    io_staging: float
    slowdown_pct: float  # staging vs in-compute (positive = slower)
    cpu_incompute: float
    cpu_staging: float
    cpu_extra_pct: float


def run_fig10(
    scales: list[int] | None = None, **run_kwargs
) -> list[Fig10Row]:
    """Run Pixie3D at each scale in both configurations."""
    rows = []
    for cores in scales or pixie3d_scales():
        ic = run_pixie3d(cores, "incompute", **run_kwargs)
        st = run_pixie3d(cores, "staging", **run_kwargs)
        im, sm = ic.metrics, st.metrics
        rows.append(
            Fig10Row(
                cores=cores,
                total_incompute=im.total,
                total_staging=sm.total,
                mainloop_incompute=im.main_loop,
                mainloop_staging=sm.main_loop,
                io_incompute=im.io_blocking,
                io_staging=sm.io_blocking,
                slowdown_pct=(sm.total - im.total) / im.total,
                cpu_incompute=ic.cpu_seconds,
                cpu_staging=st.cpu_seconds,
                cpu_extra_pct=(st.cpu_seconds - ic.cpu_seconds)
                / ic.cpu_seconds,
            )
        )
    return rows


def main(scales: list[int] | None = None, **run_kwargs) -> str:
    """Print the Fig. 10 tables; returns the formatted text."""
    rows = run_fig10(scales, **run_kwargs)
    t1 = format_table(
        ["cores", "total IC", "total ST", "main IC", "main ST",
         "io IC", "io ST"],
        [
            [
                r.cores,
                fmt_seconds(r.total_incompute),
                fmt_seconds(r.total_staging),
                fmt_seconds(r.mainloop_incompute),
                fmt_seconds(r.mainloop_staging),
                fmt_seconds(r.io_incompute),
                fmt_seconds(r.io_staging),
            ]
            for r in rows
        ],
        title="Fig. 10(b) — Pixie3D total execution time breakdown",
    )
    t2 = format_table(
        ["cores", "staging slowdown", "CPU cost IC", "CPU cost ST",
         "extra CPU"],
        [
            [
                r.cores,
                fmt_pct(r.slowdown_pct),
                f"{r.cpu_incompute:.0f} cpu-s",
                f"{r.cpu_staging:.0f} cpu-s",
                fmt_pct(r.cpu_extra_pct),
            ]
            for r in rows
        ],
        title="Fig. 10(a) — Pixie3D total CPU cost",
    )
    text = t1 + "\n\n" + t2
    print(text)
    return text


cli = flagless_cli("fig10", "Fig. 10 — Pixie3D simulation performance", main)

if __name__ == "__main__":
    cli()
