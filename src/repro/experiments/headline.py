"""Headline quoted numbers of §V (the H-gtc / H-pixie rows of DESIGN.md).

Collects, from the same runs that power Figs. 7–11, the specific
numbers the paper quotes in prose, and prints paper-vs-measured:

GTC at 16,384 cores:
- synchronous write time ~8.6 s vs visible staged write ~0.30 s
  (write latency hidden 'by up to 99.9 %');
- total simulation time improved by 2.7 % (Fig. 8a band 2.7–5.1 %);
- ~1.5 % additional resources, net CPU saving at all scales;
- statistics (histograms) on the 260 GB step in ~40 s;
- sorting in the staging area bounded (~33 s) at all scales;
- DataSpaces: fetch 20.3 s, sort 30.6 s, index 2.08 s, queries <80 s.

Pixie3D at 4,096 cores:
- staging slows the simulation by only 0.01–0.7 %;
- ~0.93 % extra simulation cost buys ~10x faster reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.cli import command_parser
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.report import format_table
from repro.experiments.runner import FAST_FIG7, FAST_FIG8, run_gtc

__all__ = ["HeadlineRow", "run_headline", "main", "cli"]


@dataclass
class HeadlineRow:
    metric: str
    paper: str
    measured: str
    holds: bool


def run_headline(*, fast: bool = False) -> list[HeadlineRow]:
    """Measure every §V prose claim; ``fast`` trims run lengths."""
    rows: list[HeadlineRow] = []
    kw = FAST_FIG7 if fast else {}

    # --- GTC write latency hiding at 16,384 cores
    ic = run_gtc(16384, "incompute", "sort", **kw)
    st = run_gtc(16384, "staging", "sort", **kw)
    ndumps = len(st.staging_reports)
    sync_write = ic.visible_write_seconds
    staged_write = st.visible_write_seconds
    hidden = 1.0 - staged_write / sync_write
    rows.append(
        HeadlineRow(
            "GTC@16k sync write / step",
            "~8.6 s",
            f"{sync_write:.2f} s",
            2.0 < sync_write < 30.0,
        )
    )
    rows.append(
        HeadlineRow(
            "GTC@16k visible staged write",
            "~0.30 s",
            f"{staged_write:.3f} s",
            staged_write < 1.0,
        )
    )
    rows.append(
        HeadlineRow(
            "write latency hidden",
            "up to 99.9 %",
            f"{hidden * 100:.1f} %",
            hidden > 0.95,
        )
    )

    # --- staging sort bounded; latency ~2 orders above in-compute
    rep = st.staging_reports[0]
    sort_op = rep.map + rep.shuffle + rep.reduce + rep.finalize + rep.aggregate
    ic_sort = sum(t.total for t in ic.in_compute_timings.values())
    rows.append(
        HeadlineRow(
            "staging sort op time",
            "<= ~33 s, within 120 s interval",
            f"{sort_op:.1f} s",
            sort_op < 60.0,
        )
    )
    rows.append(
        HeadlineRow(
            "staging sort latency vs in-compute",
            "~2 orders of magnitude",
            f"{rep.latency / max(ic_sort, 1e-9):.0f}x",
            rep.latency / max(ic_sort, 1e-9) > 10,
        )
    )

    # --- histograms: statistics on the step in ~40 s
    sth = run_gtc(16384, "staging", "histogram", **kw)
    hist_latency = sth.staging_reports[0].latency
    rows.append(
        HeadlineRow(
            "statistics on 260 GB step",
            "~40 s",
            f"{hist_latency:.1f} s",
            10.0 < hist_latency < 80.0,
        )
    )

    # --- Fig. 8 improvement and CPU saving
    f8 = run_fig8(scales=[16384], **(FAST_FIG8 if fast else {}))[0]
    rows.append(
        HeadlineRow(
            "GTC@16k total-time improvement",
            "2.7 % (band 2.7-5.1 %)",
            f"{f8.improvement_pct * 100:.2f} %",
            0.01 < f8.improvement_pct < 0.15,
        )
    )
    rows.append(
        HeadlineRow(
            "GTC@16k CPU saving (w/ 1.5 % extra cores)",
            "positive (98 CPU-hours / 30 min run)",
            f"{f8.cpu_saving_pct * 100:.2f} %",
            f8.cpu_saving_pct > 0,
        )
    )

    # --- DataSpaces preparation + query budget
    ds = run_fig9([64])[0]
    fetch = rep.fetch
    rows.append(
        HeadlineRow(
            "DataSpaces data fetch",
            "20.3 s",
            f"{fetch:.1f} s",
            10.0 < fetch < 40.0,
        )
    )
    prepare = fetch + sort_op + ds.index_seconds
    rows.append(
        HeadlineRow(
            "prepare (fetch+sort+index)",
            "<= 55 s",
            f"{prepare:.1f} s",
            prepare < 80.0,
        )
    )
    rows.append(
        HeadlineRow(
            "all queries answered",
            "< 80 s",
            f"{ds.all_queries_seconds:.1f} s",
            ds.all_queries_seconds < 80.0,
        )
    )

    # --- Pixie3D
    f10 = run_fig10(scales=[4096])[0]
    rows.append(
        HeadlineRow(
            "Pixie3D staging slowdown",
            "0.01-0.7 %",
            f"{f10.slowdown_pct * 100:.2f} %",
            -0.002 < f10.slowdown_pct < 0.012,
        )
    )
    f11 = run_fig11(functional=False)
    speedup = f11.rows[0].speedup
    rows.append(
        HeadlineRow(
            "merged-read speedup",
            "~10x",
            f"{speedup:.1f}x",
            5.0 < speedup < 20.0,
        )
    )
    extra = f10.cpu_extra_pct
    rows.append(
        HeadlineRow(
            "Pixie3D extra cost for reorg",
            "~0.93 %",
            f"{extra * 100:.2f} %",
            -0.01 < extra < 0.03,
        )
    )
    return rows


def main(**kw) -> str:
    """Print the headline paper-vs-measured table; returns the text."""
    rows = run_headline(**kw)
    text = format_table(
        ["metric", "paper", "measured", "holds"],
        [[r.metric, r.paper, r.measured, "yes" if r.holds else "NO"] for r in rows],
        title="Headline §V numbers — paper vs measured",
    )
    print(text)
    return text


def cli(argv: list[str] | None = None) -> None:
    """``python -m repro headline``: parse ``--fast``, run :func:`main`."""
    p = command_parser("headline", "Headline §V numbers")
    p.add_argument("--fast", action="store_true", help="trimmed runs")
    main(fast=p.parse_args(argv).fast)


if __name__ == "__main__":
    cli()
