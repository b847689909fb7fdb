"""Offered-load sweep benchmark of the query-serving layer.

Emits the ``BENCH_query.json`` record consumed by the perf-regression
harness (:mod:`repro.perf.bench`).  Unlike the hot-path benches, every
number here is *simulated* time from a seeded workload, so the record
is bit-identical across hosts and the guard tolerance protects purely
against behavioural regressions (a scheduling change that inflates
tail latency, a cache bug that kills the hit rate), never against
machine noise.

Guards per load point (all "bigger is better" ratios in [0, 1]):

- ``served:loadN`` — completed / issued (shedding erodes it);
- ``hit_rate:loadN`` — cache hit rate of the sweep's repeated queries;
- ``slo:loadN`` — fraction of served queries inside the latency SLO.

:func:`add_arguments`, :func:`run` and :func:`render` are the ``query``
entry of :data:`repro.perf.bench.BENCHES` (``python -m repro serve``).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.serve.config import QUERY_COST_BYTES, ServeConfig
from repro.serve.workload import WorkloadDriver

__all__ = ["BENCH_CONFIG", "DEFAULT_LOADS", "add_arguments", "bench_query", "render", "run"]

DEFAULT_LOADS = (50.0, 400.0, 3200.0)

#: latency SLO for the guard: generous against the service-time model
#: (a scatter/gather miss costs ~10 ms under the bench config), tight
#: against pathologies
SLO_SECONDS = 0.02

#: the sweep's serving configuration: a deliberately tight admission
#: budget (6 concurrent queries) and a heavier per-shard service model,
#: so the top load point actually exercises the whole pressure ladder —
#: admitted → degraded-to-stale → shed — instead of the cache absorbing
#: everything
BENCH_CONFIG = ServeConfig(
    credit_bytes=6 * QUERY_COST_BYTES,
    shard_overhead_seconds=1e-3,
    row_check_seconds=2e-6,
    row_emit_seconds=5e-7,
    codel_target=0.01,
)


def bench_query(
    loads: Sequence[float] = DEFAULT_LOADS,
    duration: float = 2.0,
    seed: int = 20260808,
    config: ServeConfig | None = None,
) -> dict:
    """Sweep offered load; returns the ``BENCH_query`` record."""
    driver = WorkloadDriver(seed=seed, config=config or BENCH_CONFIG)
    points = driver.sweep(loads, duration)
    guards: dict[str, float] = {}
    for p in points:
        tag = f"load{int(round(p.offered_qps))}"
        guards[f"served:{tag}"] = p.completed / p.issued if p.issued else 0.0
        guards[f"hit_rate:{tag}"] = p.hit_rate
        guards[f"slo:{tag}"] = p.slo_fraction(SLO_SECONDS)
    return {
        "bench": "query",
        "seed": seed,
        "duration": duration,
        "slo_seconds": SLO_SECONDS,
        "points": [p.to_dict() for p in points],
        "guards": guards,
    }


def add_arguments(parser) -> None:
    """The sweep's command-line flags."""
    parser.add_argument(
        "--loads", type=float, nargs="+", default=list(DEFAULT_LOADS),
        metavar="QPS", help="offered-load levels to sweep (queries/s)",
    )
    parser.add_argument(
        "--duration", type=float, default=2.0,
        help="sim seconds of arrivals per load point (default 2.0)",
    )
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument(
        "--nshards", type=int, default=ServeConfig.nshards,
        help="index shards (staging-node owners)",
    )


def run(*, nshards: int, **flags) -> dict:
    """:func:`bench_query` from the :func:`add_arguments` flags."""
    import dataclasses

    # same pressure config the committed baseline was recorded with,
    # so `--baseline default` compares like with like
    return bench_query(config=dataclasses.replace(BENCH_CONFIG, nshards=nshards), **flags)


def render(record: dict) -> str:
    """The per-load-point table of a ``BENCH_query`` record."""
    from repro.experiments.report import fmt_pct, format_table

    rows = [
        [
            f"{p['offered_qps']:g}",
            p["issued"],
            p["completed"],
            p["degraded"],
            p["shed"],
            f"{p['p50'] * 1e3:.3f}",
            f"{p['p99'] * 1e3:.3f}",
            fmt_pct(p["hit_rate"]),
        ]
        for p in record["points"]
    ]
    return format_table(
        ["offered q/s", "issued", "done", "degraded", "shed",
         "p50 ms", "p99 ms", "hit rate"],
        rows,
        title=f"query serving sweep (seed {record['seed']})",
    )
