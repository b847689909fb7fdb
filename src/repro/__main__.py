"""Command-line entry point: ``python -m repro <command>``.

Commands map to the experiment harness:

- ``run-all``        — every figure + headline numbers
- ``fig7``           — individual operations (sort/hist/2-D hist)
- ``fig8``           — GTC simulation performance
- ``fig9``           — DataSpaces query service
- ``fig10``          — Pixie3D simulation performance
- ``fig11``          — merged vs unmerged reads
- ``headline``       — §V prose numbers, paper vs measured
- ``utilization``    — staging-node headroom between dumps
- ``chaos``          — staging-node crash recovery (resilience)
- ``check``          — verification: schedule fuzzing, pipeline
  invariants, differential operator oracles (``--fuzz N`` etc.; see
  ``python -m repro check --help``)
- ``perf``           — hot-path micro-benchmarks: kernel variants
  (naive/vectorized), FFS packing, and the 10k/50k/100k-rank
  weak-scaling sweep (``perf scale``); writes
  ``BENCH_*.json`` sidecars and guards ratio metrics against the
  committed baseline (see ``python -m repro perf --help``)
- ``jobs``           — multi-tenant pipeline service: run N tenants
  concurrently on one shared staging fleet with fair-share carves,
  per-tenant ledgers and solo-vs-contended isolation cross-checks
  (``run``/``fuzz``; see ``python -m repro jobs --help``)
- ``serve``          — query-serving subsystem: offered-load sweep of
  point/range/aggregation queries with result caching, Hilbert-sharded
  index ownership and credit/CoDel admission; writes
  ``BENCH_query.json`` (see ``python -m repro serve --help``)
- ``stream``         — pub/sub step streaming: the coupled-workflow
  scenario (in-transit analysis + mid-run follower + slow consumer
  under credit backpressure) over DataSpaces continuous queries;
  writes ``BENCH_stream.json`` (see ``python -m repro stream --help``)
- ``scenarios``      — adversarial scenario library: named, seeded
  chaos scenarios (hot-spot skew, stragglers, corrupt/withheld
  fetches, regional partitions, kitchen sink) mapped in THREATS.md to
  the invariants that must survive them; ``list``/``run``/``sweep``
  with the ``BENCH_chaos_matrix.json`` guard (see
  ``python -m repro scenarios --help``)

``fig7``, ``headline`` and ``chaos`` accept ``--trace [PATH]`` to dump
a Chrome ``trace_event`` file (viewable in https://ui.perfetto.dev), a
``.jsonl`` span sidecar and a metrics summary table.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    """Parse arguments and dispatch to the chosen experiment."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PreDatA (IPDPS 2010) reproduction harness",
    )
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        # the verification CLI owns its own argument set
        from repro.check.cli import main as check_main

        return check_main(argv[1:])
    if argv and argv[0] == "perf":
        # the perf CLI owns its own argument set
        from repro.perf.bench import main as perf_main

        return perf_main(argv[1:])
    if argv and argv[0] == "jobs":
        # the multi-tenant jobs CLI owns its own argument set
        from repro.jobs.cli import main as jobs_main

        return jobs_main(argv[1:])
    if argv and argv[0] == "serve":
        # the query-serving CLI owns its own argument set
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "stream":
        # the streaming CLI owns its own argument set
        from repro.stream.cli import main as stream_main

        return stream_main(argv[1:])
    if argv and argv[0] == "scenarios":
        # the scenario-library CLI owns its own argument set
        from repro.scenarios.cli import main as scenarios_main

        return scenarios_main(argv[1:])
    parser.add_argument(
        "command",
        choices=["run-all", "fig7", "fig8", "fig9", "fig10", "fig11",
                 "headline", "utilization", "chaos", "check", "perf",
                 "jobs", "serve", "stream", "scenarios"],
        help="experiment to run",
    )
    parser.add_argument("--fast", action="store_true",
                        help="trimmed simulated runs")
    parser.add_argument(
        "--trace", nargs="?", const="", default=None, metavar="PATH",
        help="(fig7/headline/chaos) write a Chrome trace + metrics "
             "summary; PATH defaults to <command>_trace.json",
    )
    parser.add_argument(
        "--flow", nargs="?", const=0.25, default=None, type=float,
        metavar="FRACTION",
        help="(fig7/chaos) enable flow control: cap each staging "
             "node's buffer pool at FRACTION of its per-step working "
             "set (default 0.25)",
    )
    args = parser.parse_args(argv)
    trace = None
    if args.trace is not None:
        trace = args.trace or f"{args.command}_trace.json"

    fast_fig7 = dict(ndumps=1, iterations_per_dump=2,
                     compute_seconds_per_iteration=10.0)
    fast_fig8 = dict(ndumps=1, iterations_per_dump=4,
                     compute_seconds_per_iteration=27.0)

    if args.command == "run-all":
        from repro.experiments.run_all import run_all

        run_all(fast=args.fast)
    elif args.command == "fig7":
        from repro.experiments import fig7

        kw = dict(fast_fig7) if args.fast else {}
        if args.flow is not None:
            kw["flow_fraction"] = args.flow
        fig7.main(trace=trace, **kw)
    elif args.command == "fig8":
        from repro.experiments import fig8

        fig8.main(**(fast_fig8 if args.fast else {}))
    elif args.command == "fig9":
        from repro.experiments import fig9

        fig9.main()
    elif args.command == "fig10":
        from repro.experiments import fig10

        fig10.main()
    elif args.command == "fig11":
        from repro.experiments import fig11

        fig11.main()
    elif args.command == "headline":
        from repro.experiments import headline

        headline.main(trace=trace, fast=args.fast)
    elif args.command == "utilization":
        from repro.experiments import utilization

        utilization.main()
    elif args.command == "chaos":
        from repro.experiments import chaos

        chaos.main(trace=trace, flow_fraction=args.flow)
    return 0


if __name__ == "__main__":
    sys.exit(main())
