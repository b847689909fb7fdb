"""Fig. 8 — GTC simulation performance, In-Compute-Node vs Staging.

Fig. 8(b): total execution time and its breakdown (main loop,
operations, visible I/O) for both configurations at 512..16,384 cores.
Fig. 8(a): the Staging configuration's improvement in total execution
time (paper: 2.7 %–5.1 %) and the saving in total CPU usage (wall time
x cores, with the Staging configuration billed for its extra 1.5 %
staging cores).

All three GTC operations run together (sorting + histogram +
2-D histogram on both species), matching the production configuration
the paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.operator import PreDatAOperator
from repro.experiments.cli import command_parser
from repro.experiments.report import fmt_pct, fmt_seconds, format_table
from repro.experiments.runner import FAST_FIG8, gtc_operators, gtc_scales, run_gtc

__all__ = ["Fig8Row", "run_fig8", "table", "main", "cli"]


def _all_operations(which: str, filesystem=None) -> list[PreDatAOperator]:
    """All three §V.B operations together (ignores the *which* key)."""
    ops: list[PreDatAOperator] = []
    for op_kind in ("sort", "histogram", "histogram2d"):
        ops.extend(gtc_operators(op_kind, filesystem))
    return ops


@dataclass
class Fig8Row:
    """One scale's paired measurement."""

    cores: int
    total_incompute: float
    total_staging: float
    mainloop_incompute: float
    mainloop_staging: float
    ops_incompute: float
    io_incompute: float
    io_staging: float
    improvement_pct: float
    cpu_incompute: float
    cpu_staging: float
    cpu_saving_pct: float
    interference_pct: float  # staging main-loop slowdown vs in-compute


def run_fig8(
    scales: list[int] | None = None,
    *,
    ndumps: int = 2,
    **run_kwargs,
) -> list[Fig8Row]:
    """Run GTC at each scale in both configurations (all operations)."""
    rows = []
    for cores in scales or gtc_scales():
        ic = run_gtc(
            cores, "incompute", "all",
            operators_factory=_all_operations,
            ndumps=ndumps,
            **run_kwargs,
        )
        st = run_gtc(
            cores, "staging", "all",
            operators_factory=_all_operations,
            ndumps=ndumps,
            **run_kwargs,
        )
        im, sm = ic.metrics, st.metrics
        improvement = (im.total - sm.total) / im.total
        cpu_saving = (ic.cpu_seconds - st.cpu_seconds) / ic.cpu_seconds
        interference = (sm.main_loop - im.main_loop) / im.main_loop
        rows.append(
            Fig8Row(
                cores=cores,
                total_incompute=im.total,
                total_staging=sm.total,
                mainloop_incompute=im.main_loop,
                mainloop_staging=sm.main_loop,
                ops_incompute=im.operations,
                io_incompute=im.io_blocking,
                io_staging=sm.io_blocking,
                improvement_pct=improvement,
                cpu_incompute=ic.cpu_seconds,
                cpu_staging=st.cpu_seconds,
                cpu_saving_pct=cpu_saving,
                interference_pct=interference,
            )
        )
    return rows


def table(rows: list[Fig8Row]) -> str:
    """The Fig. 8(b) and 8(a) tables."""
    t1 = format_table(
        ["cores", "total IC", "total ST", "main IC", "main ST",
         "ops IC", "io IC", "io ST"],
        [
            [
                r.cores,
                fmt_seconds(r.total_incompute),
                fmt_seconds(r.total_staging),
                fmt_seconds(r.mainloop_incompute),
                fmt_seconds(r.mainloop_staging),
                fmt_seconds(r.ops_incompute),
                fmt_seconds(r.io_incompute),
                fmt_seconds(r.io_staging),
            ]
            for r in rows
        ],
        title="Fig. 8(b) — GTC total execution time breakdown",
    )
    t2 = format_table(
        ["cores", "time improvement", "CPU saving", "interference"],
        [
            [
                r.cores,
                fmt_pct(r.improvement_pct),
                fmt_pct(r.cpu_saving_pct),
                fmt_pct(r.interference_pct),
            ]
            for r in rows
        ],
        title="Fig. 8(a) — Staging improvement over In-Compute-Node",
    )
    return t1 + "\n\n" + t2


def main(scales: list[int] | None = None, **run_kwargs) -> str:
    """Print the Fig. 8 tables; returns the formatted text."""
    text = table(run_fig8(scales, **run_kwargs))
    print(text)
    return text


def cli(argv: list[str] | None = None) -> None:
    """``python -m repro fig8``: parse the flags, run :func:`main`."""
    p = command_parser("fig8", "Fig. 8 — GTC simulation performance")
    p.add_argument("--fast", action="store_true", help="trimmed runs")
    main(**(FAST_FIG8 if p.parse_args(argv).fast else {}))


if __name__ == "__main__":
    cli()
