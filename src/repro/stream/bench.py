"""Streaming benchmark: the ``BENCH_stream.json`` record.

Runs the seeded coupled-workflow scenario and guards the streaming
subsystem's behavioural envelope.  Every number is *simulated* time
from a seeded run, so the record is bit-identical across hosts and
the tolerance protects purely against behavioural regressions.

Guards (all "bigger is better" ratios in [0, 1]):

- ``conservation`` — 1.0 iff the stream conservation check is clean
  (published == delivered + deduped per subscriber, exactly-once);
- ``delivered:<group>`` — delivered / entitled per consumer group;
- ``notify_slo`` — fraction of the *analysis* group's latency marks
  (p50/p99 per run) within :data:`NOTIFY_SLO_SECONDS` of publish —
  the unthrottled group, so the guard measures wire responsiveness,
  not intentional backpressure stalls;
- ``throughput:analysis`` — the analysis group's per-member step rate
  relative to the producer's (1.0 = keeps up);
- ``lag_bound:slow`` — 1.0 iff the slow consumer's worst lag stayed
  within its credit budget (+1 idle-bank step), degrading as the
  ratio of bound to observed lag otherwise.

:func:`bench_stream` with :func:`add_arguments`, :func:`render` and
:func:`failed` is the ``stream`` entry of
:data:`repro.perf.bench.BENCHES` (``python -m repro stream``).
"""

from __future__ import annotations

from repro.stream import scenario

__all__ = [
    "BENCH_PARAMS",
    "NOTIFY_SLO_SECONDS",
    "add_arguments",
    "bench_stream",
    "failed",
    "render",
]

#: generous against the tiny-machine wire model (a watermark is one
#: 64-byte message), tight against scheduling pathologies
NOTIFY_SLO_SECONDS = 0.05

#: the committed baseline's scenario shape: a 2x-rate producer over
#: the slow group (the scenario's fixed consumer side adds a mid-run
#: follower join and lossy-ack redelivery)
BENCH_PARAMS = dict(nsteps=10, grid=48, producers=4, step_period=0.4, credit_steps=2)
#: seed of the committed baseline's run
SEED = 20260808


def bench_stream(**overrides) -> dict:
    """Run the scenario once; returns the ``BENCH_stream`` record."""
    params = {**BENCH_PARAMS, **overrides}
    run = scenario.run_stream(seed=SEED, **params)
    guards: dict[str, float] = {
        "conservation": 1.0 if not run.violations else 0.0,
    }
    for name, g in run.groups.items():
        guards[f"delivered:{name}"] = (
            g.delivered / g.entitled if g.entitled else 0.0
        )
    analysis = run.groups["analysis"]
    lats = [analysis.notify_p50, analysis.notify_p99]
    guards["notify_slo"] = sum(
        1 for v in lats if v <= NOTIFY_SLO_SECONDS
    ) / len(lats)
    guards["throughput:analysis"] = min(
        1.0, analysis.throughput * params["step_period"]
    )
    slow = run.groups["slow"]
    bound = params["credit_steps"] + 1
    guards["lag_bound:slow"] = (
        1.0 if slow.max_lag <= bound else bound / slow.max_lag
    )
    return {
        "bench": "stream",
        "seed": SEED,
        "params": {
            **params,
            "analysis_members": scenario.ANALYSIS_MEMBERS,
            "slow_members": scenario.SLOW_MEMBERS,
            "follower_join_frac": scenario.FOLLOWER_JOIN_FRAC,
            "slow_process_factor": scenario.SLOW_PROCESS_FACTOR,
            "redeliver_rate": scenario.REDELIVER_RATE,
        },
        "notify_slo_seconds": NOTIFY_SLO_SECONDS,
        "run": run.to_dict(),
        "guards": guards,
    }


def add_arguments(parser) -> None:
    """The scenario's flags: each overrides the :data:`BENCH_PARAMS` entry it names."""
    for flag, param, help_text in (
        ("--steps", "nsteps", "producer steps to publish"),
        ("--period", "step_period", "producer step period (sim seconds)"),
        ("--credit-steps", "credit_steps", "slow consumer's credit budget in steps"),
    ):
        default = BENCH_PARAMS[param]
        parser.add_argument(flag, dest=param, type=type(default), default=default, help=help_text)


def failed(record: dict) -> bool:
    """True when the run broke stream conservation."""
    return bool(record["run"]["violations"])


def render(record: dict) -> str:
    """The per-group delivery table and conservation verdict of a record."""
    from repro.experiments.report import format_table

    run = record["run"]
    rows = [
        [
            g["name"],
            g["members"],
            g["first_step"] if g["first_step"] is not None else "-",
            g["entitled"],
            g["delivered"],
            g["deduped"],
            g["consumed"],
            g["max_lag"],
            f"{g['throughput']:.2f}",
            f"{g['notify_p99'] * 1e3:.3f}",
        ]
        for g in run["groups"].values()
    ]
    table = format_table(
        ["group", "members", "first step", "entitled", "delivered",
         "deduped", "consumed", "max lag", "steps/s", "p99 ms"],
        rows,
        title=f"step streaming ({run['published']} steps published, "
        f"seed {record['seed']})",
    )
    verdict = [f"[stream] CONSERVATION VIOLATION {v}" for v in run["violations"]] or [
        "[stream] conservation check clean (sent == delivered + deduped, exactly-once)"
    ]
    return "\n".join([table, *verdict])
