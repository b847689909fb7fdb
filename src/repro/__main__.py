from __future__ import annotations

import pkgutil
import sys

#: command -> (``"module:callable"``, one-line summary).  The callable
#: takes the arguments after the command name and owns the command's
#: only parser; ``python -m <module>`` runs the same callable.
COMMANDS = {
    "run-all": ("repro.experiments.run_all:cli", "every figure + headline numbers"),
    "fig7": ("repro.experiments.fig7:cli", "individual operations (sort/hist/2-D hist)"),
    "fig8": ("repro.experiments.fig8:cli", "GTC simulation performance"),
    "fig9": ("repro.experiments.fig9:cli", "DataSpaces query service"),
    "fig10": ("repro.experiments.fig10:cli", "Pixie3D simulation performance"),
    "fig11": ("repro.experiments.fig11:cli", "merged vs unmerged reads"),
    "headline": ("repro.experiments.claims:cli", "§V prose numbers, paper vs measured"),
    "utilization": ("repro.experiments.utilization:cli", "staging-node headroom between dumps"),
    "check": (
        "repro.check.cli:main",
        "verification: schedule fuzzing, pipeline invariants, operator oracles",
    ),
    "perf": (
        "repro.perf.bench:main",
        "benchmarks: write BENCH_*.json sidecars, guard them against the committed baselines",
    ),
    "serve": ("repro.perf.bench:serve_main", "query-serving offered-load sweep (perf query)"),
    "stream": ("repro.perf.bench:stream_main", "coupled-workflow step streaming (perf stream)"),
    "scenarios": (
        "repro.scenarios.cli:main",
        "adversarial scenario library: list, run, chaos (crash recovery), sweep (perf chaos_matrix)",
    ),
}

USAGE = "\n".join(
    [
        "usage: python -m repro <command> [options]",
        "",
        "PreDatA (IPDPS 2010) reproduction harness.  Commands:",
        "",
        *(f"  {name:<12} {summary}" for name, (_, summary) in COMMANDS.items()),
        "",
        "Every command takes --help for its own options.",
    ]
)
__doc__ = f"Command-line entry point.\n\n{USAGE}\n"


def main(argv: list[str] | None = None) -> int:
    """Look the command up in :data:`COMMANDS` and hand it the rest of *argv*."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] in (["-h"], ["--help"]):
        print(USAGE)
        return 0
    if not argv or argv[0] not in COMMANDS:
        print(USAGE, file=sys.stderr)
        return 2
    target, _ = COMMANDS[argv[0]]
    return pkgutil.resolve_name(target)(argv[1:]) or 0


if __name__ == "__main__":
    sys.exit(main())
