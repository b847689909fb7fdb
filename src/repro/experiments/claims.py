"""The paper's §V claims as data: one :class:`Claim` per claim.

Each claim names the figure runs it reads (:data:`RUNS`), measures one
value per row of those runs and says when a value holds.  Every check
of the evaluation is a view of this registry:

- ``python -m repro headline`` (and the last table of ``run-all``)
  prints the claims that carry a ``headline`` label, measured on
  :func:`headline_run`: GTC at 16,384 cores, DataSpaces at 64 querying
  cores, Pixie3D at 4,096 cores;
- ``benchmarks/test_claims.py`` runs each of :data:`RUNS` once, prints
  its figure tables and fails with the id of every claim on that run
  that does not hold.

A claim id is ``<Exp id>.<slug>``, the Exp id a row of DESIGN.md §4.
A predicate several runs check is one claim listing those runs; two
runs that check the same quantity against different thresholds keep
two claims (``H-gtc.write-hidden`` / ``F8b.write-hidden``,
``H-gtc.sort-bounded`` / ``F7-sort.staging-bounded``,
``H-gtc.improvement`` / ``F8a.staging-faster``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.experiments import fig7, fig8, fig9, fig10, fig11, utilization
from repro.experiments.cli import command_parser
from repro.experiments.report import format_table
from repro.experiments.runner import FAST_FIG7, FAST_FIG8

__all__ = ["Claim", "Run", "CLAIMS", "RUNS", "HEADLINE", "headline_run",
           "headline_table", "failing", "main", "cli"]

#: GTC's I/O interval between dumps, seconds (§V.B)
INTERVAL = 120.0


@dataclass(frozen=True)
class Claim:
    """One claim of §V and how a run checks it."""

    id: str  # "<DESIGN.md §4 Exp id>.<slug>"
    section: str
    paper: str  # what the paper says
    runs: tuple[str, ...]  # the keys of RUNS whose results it reads
    measure: Callable[[dict], list]  # run result -> one value per row it reads
    holds: Callable[[Any], bool]
    headline: str = ""  # the metric label of the headline table ("" = not shown)
    shown: Callable[[Any], str] = str  # how the headline table prints a value

    def verdict(self, res: dict) -> bool:
        """Whether every value the claim measures on *res* holds."""
        return all(self.holds(v) for v in self.measure(res))


@dataclass(frozen=True)
class Run:
    """One figure run: its result is ``{series: rows}``."""

    call: Callable[[], dict]
    table: Callable[[dict], str]


def _pairs(rows: list) -> list:
    """Fig. 7 rows as ``(in-compute, staging)`` per scale, ascending."""
    ic = {r.cores: r for r in rows if r.placement == "incompute"}
    return [(ic[r.cores], r) for r in rows if r.placement == "staging"]


def _growth(rows: list, attr: str) -> list:
    """The largest scale's *attr* over the smallest's."""
    return [getattr(rows[-1], attr) / getattr(rows[0], attr)]


def _s(digits: int) -> Callable[[float], str]:
    return lambda x: f"{x:.{digits}f} s"


def _pct(x: float) -> str:
    return f"{x * 100:.2f} %"


def _histogram_claims(exp: str, op: str, run: str) -> list[Claim]:
    """Fig. 7's placement conclusions, which both histograms share."""
    return [
        Claim(f"{exp}.result-write-visible", "§V.B.1",
              "the 8 MB result-file write is visible to the simulation (0.25-7 s)", (run,),
              lambda res: [ic.io for ic, _ in _pairs(res[op])], lambda x: x > 0.05),
        Claim(f"{exp}.write-hidden", "§V.B.1",
              "staging hides the result-file write: staging io / in-compute io", (run,),
              lambda res: [st.io / ic.io for ic, st in _pairs(res[op])], lambda x: x < 1.0),
        Claim(f"{exp}.in-interval", "§V.B.1",
              "staging latency inside half of the 120 s interval", (run,),
              lambda res: [st.latency for _, st in _pairs(res[op])],
              lambda x: x < INTERVAL * 0.5),
    ]


HEADLINE = "headline_numbers"

CLAIMS: list[Claim] = [
    # -- GTC at 16,384 cores: write latency hiding (§V.B.2)
    Claim("H-gtc.sync-write", "§V.B.2", "~8.6 s", (HEADLINE,),
          lambda res: [ic.visible_write for ic, _ in _pairs(res["sort"])],
          lambda x: 2.0 < x < 30.0, "GTC@16k sync write / step", _s(2)),
    Claim("H-gtc.staged-write", "§V.B.2", "~0.30 s", (HEADLINE,),
          lambda res: [st.visible_write for _, st in _pairs(res["sort"])],
          lambda x: x < 1.0, "GTC@16k visible staged write", _s(3)),
    Claim("H-gtc.write-hidden", "§V.B.2", "up to 99.9 %", (HEADLINE,),
          lambda res: [1.0 - st.visible_write / ic.visible_write
                       for ic, st in _pairs(res["sort"])],
          lambda x: x > 0.95, "write latency hidden", lambda x: f"{x * 100:.1f} %"),
    # -- Fig. 7(a)(d) sort (§V.B.1)
    Claim("H-gtc.sort-bounded", "§V.B.1", "<= ~33 s, within 120 s interval", (HEADLINE,),
          lambda res: [st.total for _, st in _pairs(res["sort"])],
          lambda x: x < 60.0, "staging sort op time", _s(1)),
    Claim("F7-sort.latency-orders", "§V.B.1", "~2 orders of magnitude",
          ("fig7_sort", HEADLINE),
          lambda res: [st.latency / max(ic.latency, 1e-9) for ic, st in _pairs(res["sort"])],
          lambda x: x > 10, "staging sort latency vs in-compute", lambda x: f"{x:.0f}x"),
    Claim("F7-sort.incompute-grows", "§V.B.1",
          "in-compute sort cost grows with scale (the all-to-all shuffle)", ("fig7_sort",),
          lambda res: _growth([ic for ic, _ in _pairs(res["sort"])], "communicate"),
          lambda x: x > 1.5),
    Claim("F7-sort.staging-bounded", "§V.B.1",
          "staging sort op time bounded, inside the 120 s interval", ("fig7_sort",),
          lambda res: [st.total for _, st in _pairs(res["sort"])],
          lambda x: x < INTERVAL * 0.6),
    Claim("F7-sort.staging-flat", "§V.B.1",
          "weak-scaled staging load: op time near-flat across scales", ("fig7_sort",),
          lambda res: [max(st.total for _, st in _pairs(res["sort"]))
                       / min(st.total for _, st in _pairs(res["sort"]))],
          lambda x: x < 2.0),
    # -- Fig. 7(b)(e) and 7(c)(f) histograms (§V.B.1)
    Claim("H-gtc.statistics", "§V.B.1", "~40 s", (HEADLINE,),
          lambda res: [st.latency for _, st in _pairs(res["histogram"])],
          lambda x: 10.0 < x < 80.0, "statistics on 260 GB step", _s(1)),
    Claim("F7-hist.incompute-cheaper", "§V.B.1",
          "in compute nodes the histogram takes less wall-clock time than staging's pipeline",
          ("fig7_histogram",),
          lambda res: [ic.total / (st.total + st.movement) for ic, st in _pairs(res["histogram"])],
          lambda x: x < 1.0),
    *_histogram_claims("F7-hist", "histogram", "fig7_histogram"),
    Claim("F7-hist2d.more-compute", "§V.B.1",
          "the 2-D histogram computes more than the 1-D one (in-compute)", ("fig7_histogram2d",),
          lambda res: [a.compute / b.compute for (a, _), (b, _)
                       in zip(_pairs(res["histogram2d"]), _pairs(res["histogram"]))],
          lambda x: x >= 1.0),
    Claim("F7-hist2d.more-communication", "§V.B.1",
          "the 2-D histogram communicates more than the 1-D one (staging)", ("fig7_histogram2d",),
          lambda res: [a.communicate / b.communicate for (_, a), (_, b)
                       in zip(_pairs(res["histogram2d"]), _pairs(res["histogram"]))],
          lambda x: x >= 1.0),
    *_histogram_claims("F7-hist2d", "histogram2d", "fig7_histogram2d"),
    # -- Fig. 8 GTC simulation performance (§V.B.2)
    Claim("H-gtc.improvement", "§V.B.2", "2.7 % (band 2.7-5.1 %)", (HEADLINE,),
          lambda res: [r.improvement_pct for r in res["fig8"]],
          lambda x: 0.01 < x < 0.15, "GTC@16k total-time improvement", _pct),
    Claim("F8a.cpu-saving", "§V.B.2", "positive (98 CPU-hours / 30 min run)",
          ("fig8_gtc", HEADLINE),
          lambda res: [r.cpu_saving_pct for r in res["fig8"]],
          lambda x: x > 0, "GTC@16k CPU saving (w/ 1.5 % extra cores)", _pct),
    Claim("F8a.staging-faster", "§V.B.2",
          "staging improves total execution time at every scale", ("fig8_gtc",),
          lambda res: [r.improvement_pct for r in res["fig8"]], lambda x: x > 0.0),
    Claim("F8a.gain-grows", "§V.B.2",
          "the improvement grows with scale: largest minus smallest scale", ("fig8_gtc",),
          lambda res: [res["fig8"][-1].improvement_pct - res["fig8"][0].improvement_pct],
          lambda x: x >= 0.0),
    Claim("F8b.write-hidden", "§V.B.2",
          "visible I/O blocking collapses (8.6 s -> 0.30 s): staging io / in-compute io",
          ("fig8_gtc",),
          lambda res: [r.io_staging / r.io_incompute for r in res["fig8"]], lambda x: x < 0.1),
    Claim("F8b.ops-visible", "§V.B.2",
          "in-compute operations are a visible cost (3.0 % -> 4.1 % of runtime)", ("fig8_gtc",),
          lambda res: [r.ops_incompute for r in res["fig8"]], lambda x: x > 0.5),
    Claim("F8b.sync-write-grows", "§V.B.2",
          "the sync-write penalty grows with scale", ("fig8_gtc",),
          lambda res: _growth(res["fig8"], "io_incompute"), lambda x: x > 2),
    # -- Fig. 9 DataSpaces (§V.B.4)
    Claim("H-gtc.fetch", "§V.B.4", "20.3 s", (HEADLINE,),
          lambda res: [st.movement for _, st in _pairs(res["sort"])],
          lambda x: 10.0 < x < 40.0, "DataSpaces data fetch", _s(1)),
    Claim("H-gtc.prepare", "§V.B.4", "<= 55 s", (HEADLINE,),
          lambda res: [st.movement + st.total + res["fig9"][0].index_seconds
                       for _, st in _pairs(res["sort"])],
          lambda x: x < 80.0, "prepare (fetch+sort+index)", _s(1)),
    Claim("F9.queries-in-budget", "§V.B.4", "< 80 s", ("fig9_dataspaces", HEADLINE),
          lambda res: [r.all_queries_seconds for r in res["fig9"]],
          lambda x: x < 80.0, "all queries answered", _s(1)),
    Claim("F9.setup-dominates", "§V.B.4",
          "the first query's setup outweighs a steady-state query", ("fig9_dataspaces",),
          lambda res: [(r.setup_seconds + r.hashing_seconds) / r.query_seconds
                       for r in res["fig9"]],
          lambda x: x > 0.5),
    Claim("F9.index-in-interval", "§V.B.4", "indexing 2.08 s, prepare <= 55 s",
          ("fig9_dataspaces",),
          lambda res: [r.index_seconds for r in res["fig9"]], lambda x: x < 55.0),
    Claim("F9.setup-grows", "§V.B.4",
          "setup grows with the number of first-time clients", ("fig9_dataspaces",),
          lambda res: _growth(res["fig9"], "setup_seconds"), lambda x: x > 2),
    Claim("F9.query-grows", "§V.B.4",
          "steady-state query time grows with querying cores", ("fig9_dataspaces",),
          lambda res: _growth(res["fig9"], "query_seconds"), lambda x: x > 1),
    # -- Fig. 10 and Fig. 11 Pixie3D (§V.C)
    Claim("F10b.slowdown-small", "§V.C", "0.01-0.7 %", ("fig10_pixie3d", HEADLINE),
          lambda res: [r.slowdown_pct for r in res["fig10"]],
          lambda x: -0.002 < x < 0.012, "Pixie3D staging slowdown", _pct),
    Claim("F11.merged-faster", "§V.C", "~10x", ("fig11_read", HEADLINE),
          lambda res: [r.speedup for r in res["fig11"].rows],
          lambda x: 5.0 < x < 20.0, "merged-read speedup", lambda x: f"{x:.1f}x"),
    Claim("H-pixie.reorg-cost", "§V.C", "~0.93 %", (HEADLINE,),
          lambda res: [r.cpu_extra_pct for r in res["fig10"]],
          lambda x: -0.01 < x < 0.03, "Pixie3D extra cost for reorg", _pct),
    Claim("F10b.io-hidden", "§V.C", "the I/O that is there gets hidden: staging io / in-compute io",
          ("fig10_pixie3d",),
          lambda res: [r.io_staging / r.io_incompute for r in res["fig10"]], lambda x: x < 1.0),
    Claim("F10b.gap-narrows", "§V.C",
          "the slowdown narrows as scale grows: largest minus smallest scale", ("fig10_pixie3d",),
          lambda res: [res["fig10"][-1].slowdown_pct - res["fig10"][0].slowdown_pct],
          lambda x: x < 0.0),
    Claim("F11.identical-arrays", "§V.C",
          "merged and unmerged files assemble to identical global arrays", ("fig11_read",),
          lambda res: [res["fig11"].functional_identical], bool),
    Claim("F11.fewer-extents", "§V.C",
          "reorganisation collapses the representative run's extent count", ("fig11_read",),
          lambda res: [res["fig11"].rep_extents_unmerged / res["fig11"].rep_extents_merged],
          lambda x: x > 1),
    Claim("F11.extents-collapse", "§V.C",
          "merged extents at the 4,096-writer geometry: unmerged / merged", ("fig11_read",),
          lambda res: [r.extents_unmerged / r.extents_merged for r in res["fig11"].rows],
          lambda x: x > 50),
    # -- staging headroom between dumps (§VI's premise)
    Claim("P-util.fits-interval", "§VI",
          "the in-transit pipeline fits the I/O interval with margin", ("staging_utilization_headroom",),
          lambda res: [r.interval_occupancy for r in res["utilization"]], lambda x: x < 0.75),
    Claim("P-util.cores-idle", "§VI",
          "staging cores are under-utilized between dumps", ("staging_utilization_headroom",),
          lambda res: [r.core_busy_fraction for r in res["utilization"]], lambda x: x < 0.5),
    Claim("P-util.cores-work", "§VI",
          "but they do real work, not idle by vacancy", ("staging_utilization_headroom",),
          lambda res: [r.pipeline_seconds for r in res["utilization"]], lambda x: x > 1.0),
]


def headline_run(fast: bool) -> dict:
    """The runs the headline table reads; ``fast`` trims the GTC runs."""
    kw7, kw8 = (FAST_FIG7, FAST_FIG8) if fast else ({}, {})
    return {
        "sort": fig7.run_fig7("sort", [16384], **kw7),
        "histogram": fig7.run_fig7("histogram", [16384], **kw7),
        "fig8": fig8.run_fig8([16384], **kw8),
        "fig9": fig9.run_fig9([64]),
        "fig10": fig10.run_fig10([4096]),
        "fig11": fig11.run_fig11(functional=False),
    }


def headline_table(res: dict) -> str:
    """The headline-labelled claims on *res*: paper vs measured (first row)."""
    return format_table(
        ["metric", "paper", "measured", "holds"],
        [[c.headline, c.paper, c.shown(c.measure(res)[0]), "yes" if c.verdict(res) else "NO"]
         for c in CLAIMS if c.headline],
        title="Headline §V numbers — paper vs measured",
    )


def _fig7_run(*ops: str, scales: list[int]) -> Run:
    return Run(lambda: {op: fig7.run_fig7(op, scales, **FAST_FIG7) for op in ops},
               lambda res: "\n\n".join(fig7.table(op, rows) for op, rows in res.items()))


def _one(series: str, call: Callable[[], Any], table: Callable[[Any], str]) -> Run:
    return Run(lambda: {series: call()}, lambda res: table(res[series]))


#: the figure runs the claims read, named as their benchmark sidecars
#: (``BENCH_<name>.json``)
RUNS: dict[str, Run] = {
    "fig7_sort": _fig7_run("sort", scales=[512, 2048, 8192, 16384]),
    "fig7_histogram": _fig7_run("histogram", scales=[512, 4096, 16384]),
    "fig7_histogram2d": _fig7_run("histogram2d", "histogram", scales=[512, 16384]),
    "fig8_gtc": _one("fig8", lambda: fig8.run_fig8([512, 2048, 16384], **FAST_FIG8), fig8.table),
    "fig9_dataspaces": _one("fig9", lambda: fig9.run_fig9([32, 64, 128, 256]), fig9.table),
    "fig10_pixie3d": _one("fig10", lambda: fig10.run_fig10([256, 1024, 4096]), fig10.table),
    "fig11_read": _one("fig11", lambda: fig11.run_fig11(rep_cores=256), fig11.table),
    HEADLINE: Run(lambda: headline_run(fast=True), headline_table),
    "staging_utilization_headroom": _one(
        "utilization",
        lambda: utilization.run_utilization([512, 4096, 16384], **FAST_FIG8),
        utilization.table),
}


def failing(run: str, res: dict) -> list[str]:
    """The id of every claim on *run* that does not hold on its result *res*."""
    return [c.id for c in CLAIMS if run in c.runs and not c.verdict(res)]


def main(fast: bool) -> str:
    """Print the headline paper-vs-measured table; returns the text."""
    text = headline_table(headline_run(fast))
    print(text)
    return text


def cli(argv: list[str] | None = None) -> None:
    """``python -m repro headline``: parse ``--fast``, run :func:`main`."""
    p = command_parser("headline", "Headline §V numbers")
    p.add_argument("--fast", action="store_true", help="trimmed runs")
    main(fast=p.parse_args(argv).fast)


if __name__ == "__main__":
    cli()
