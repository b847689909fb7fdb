"""Scenario runner: one chaos-workload run per scenario set.

Glues a :class:`~repro.scenarios.harness.ScenarioHarness` onto the
chaos workload (:func:`repro.scenarios.workload.run_once`) with the
invariant checker bound, and distils the outcome into a
:class:`ScenarioRunResult`: completeness, fired faults, surviving
invariants, and the two determinism digests (run fingerprint +
schedule hash) combined into one scenario fingerprint.  The harness is
the workload's only source of faults, so the scenario set fully owns
the fault schedule.

:func:`crash_run` and :func:`run_chaos` are the ``staging-crash``
scenario at the workload's own resilience defaults: the recovery table
of ``python -m repro scenarios chaos``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from .base import INVARIANTS, Scenario, make
from .harness import ScenarioHarness
from .workload import ChaosRun, fingerprint, run_once

__all__ = [
    "DEFAULT_REGIONS",
    "ScenarioRunResult",
    "crash_run",
    "run_chaos",
    "run_named",
    "run_scenarios",
    "sweep",
    "sweep_arguments",
    "sweep_failed",
    "sweep_render",
]

#: region names used when a scenario needs a RegionalTopology
DEFAULT_REGIONS = ("east", "central", "west")
#: runs per scenario in :func:`sweep`, for its within-process determinism
#: guard
REPEATS = 2


@dataclass
class ScenarioRunResult:
    """Everything the scenario test wall asserts about one run."""

    scenarios: tuple[str, ...]
    seed: int
    complete: bool
    missing_steps: list[int]
    wall_seconds: float
    faults_fired: int
    fault_kinds: tuple[str, ...]
    fetch_retries: int
    restarts: int
    #: invariant-checker violations (empty = all ledgers balance)
    violations: list[str]
    #: the invariants the scenario set promised to uphold
    invariants: tuple[str, ...]
    #: digest of planned + fired adversarial schedule
    schedule_hash: str
    #: combined digest: run fingerprint | schedule hash
    fingerprint: str
    run: object = field(repr=False, default=None)
    harness: ScenarioHarness = field(repr=False, default=None)
    checker: object = field(repr=False, default=None)

    @property
    def surviving(self) -> bool:
        """Whether every promised, checkable invariant held."""
        return self.complete and not self.violations


def _regional_factory(n: int):
    """RegionalTopology factory over :data:`DEFAULT_REGIONS`.

    All latency classes default to local (0.0 s extra) so the regional
    machine is byte-identical to the plain torus until a scenario opens
    an extra-latency window.
    """
    from repro.machine import RegionalTopology

    return RegionalTopology(n, DEFAULT_REGIONS)


def run_scenarios(
    scenarios: Sequence[Scenario],
    *,
    seed: int = 0,
    fast: bool = False,
    **workload,
) -> ScenarioRunResult:
    """Run the chaos workload under *scenarios* and distil the result.

    ``fast`` shrinks the workload (fewer ranks and steps) for test and
    smoke use; extra ``workload`` kwargs are forwarded verbatim to
    :func:`repro.scenarios.workload.run_once`.
    """
    from repro.check import Checker
    from repro.faults import ResilienceConfig

    harness = ScenarioHarness(list(scenarios), seed=seed)
    checker = Checker()
    config = dict(
        resilience=ResilienceConfig(
            fetch_timeout=1.0,
            fetch_retry_backoff=0.25,
            fetch_max_attempts=6,
        ),
        scenario_harness=harness,
        check=checker,
    )
    if harness.needs_regions:
        config["topology"] = _regional_factory
    if fast:
        config.update(logical_ranks=128, rep_ranks=4, nsteps=2)
    config.update(workload)
    run = run_once(**config)

    schedule_hash = harness.schedule_hash()
    # the schedule hash already digests the fired-fault log
    combined = hashlib.sha256(
        (fingerprint(replace(run, injector=None)) + "|" + schedule_hash).encode()
    ).hexdigest()
    violations = checker.violations(run.predata)
    fired = harness.fired
    return ScenarioRunResult(
        scenarios=tuple(s.name for s in scenarios),
        seed=seed,
        complete=run.complete,
        missing_steps=list(run.missing_steps),
        wall_seconds=run.wall_seconds,
        faults_fired=len(fired),
        fault_kinds=tuple(sorted({kind for kind, _t, _d in fired})),
        fetch_retries=run.fetch_retries,
        restarts=run.restarts,
        violations=violations,
        invariants=harness.invariants(),
        schedule_hash=schedule_hash,
        fingerprint=combined,
        run=run,
        harness=harness,
        checker=checker,
    )


def run_named(
    name: str,
    *,
    seed: int = 0,
    intensity: float = 1.0,
    fast: bool = False,
    **workload,
) -> ScenarioRunResult:
    """Run one registered scenario by name (the CLI entry point)."""
    scenario = make(name, seed=seed, intensity=intensity)
    return run_scenarios([scenario], seed=seed, fast=fast, **workload)


def crash_run(seed: int, **workload) -> ChaosRun:
    """The chaos workload under ``staging-crash`` alone, harness-seeded
    with *seed*, at :func:`run_once`'s own resilience defaults and with
    no checker bound; *workload* is forwarded to :func:`run_once`."""
    harness = ScenarioHarness([make("staging-crash")], seed=seed)
    return run_once(scenario_harness=harness, **workload)


def run_chaos(**workload) -> list[tuple[ChaosRun, float]]:
    """(fault run, no-fault baseline wall seconds) at 512, 1024 and 2048
    logical ranks: :func:`crash_run` at seed 7 beside the identical
    run without a harness, which isolates the recovery's cost."""
    return [
        (
            crash_run(7, logical_ranks=logical, **workload),
            run_once(logical_ranks=logical, **workload).wall_seconds,
        )
        for logical in (512, 1024, 2048)
    ]


def sweep(names: Sequence[str] | None = None, *, fast: bool = False) -> dict:
    """The chaos matrix: every scenario run :data:`REPEATS` times at
    seed 0 and full intensity.

    Returns a benchmark record (see :mod:`repro.perf.bench`) whose
    guards are host-independent *fractions*: scenarios registered,
    completeness, invariant cleanliness, and within-process determinism
    (every repeat of a scenario must reproduce the same fingerprint
    and schedule hash).  Raw fingerprints ride along in the rows for
    human diffing, but are deliberately not guarded — they may shift
    across numpy versions.
    """
    from .base import names as registered

    chosen = list(names) if names else registered()
    rows = []
    complete = clean = deterministic = 0
    for name in chosen:
        results = [
            run_named(name, fast=fast)
            for _ in range(REPEATS)
        ]
        first = results[0]
        same = all(
            r.fingerprint == first.fingerprint
            and r.schedule_hash == first.schedule_hash
            for r in results[1:]
        )
        complete += bool(first.complete)
        clean += not first.violations
        deterministic += bool(same)
        rows.append(
            {
                "scenario": name,
                "complete": first.complete,
                "faults_fired": first.faults_fired,
                "fault_kinds": list(first.fault_kinds),
                "fetch_retries": first.fetch_retries,
                "restarts": first.restarts,
                "violations": list(first.violations),
                "invariants": list(first.invariants),
                "deterministic": same,
                "wall_seconds": round(first.wall_seconds, 6),
                "fingerprint": first.fingerprint,
                "schedule_hash": first.schedule_hash,
            }
        )
    n = len(chosen)
    return {
        "config": {
            "seed": 0,
            "intensity": 1.0,
            "fast": fast,
            "repeats": REPEATS,
            "scenarios": chosen,
            "invariant_vocabulary": list(INVARIANTS),
        },
        "rows": rows,
        "guards": {
            "scenarios_registered": len(registered()),
            "complete_fraction": complete / n if n else 0.0,
            "invariant_clean_fraction": clean / n if n else 0.0,
            "determinism_fraction": deterministic / n if n else 0.0,
        },
    }


# -- with :func:`sweep`, the ``chaos_matrix`` entry of repro.perf.bench.BENCHES
def sweep_arguments(parser) -> None:
    """The flags of ``repro scenarios sweep``: :func:`sweep`'s arguments."""
    parser.add_argument(
        "names", nargs="*", help="scenario subset (default: all registered)"
    )
    parser.add_argument("--fast", action="store_true")


def sweep_failed(record: dict) -> bool:
    """True unless every scenario completed, stayed clean and reproduced."""
    g = record["guards"]
    return (
        g["complete_fraction"] < 1.0
        or g["invariant_clean_fraction"] < 1.0
        or g["determinism_fraction"] < 1.0
    )


def sweep_render(record: dict) -> str:
    """The per-scenario table of a chaos-matrix record."""
    from repro.experiments.report import format_table

    rows = [
        [
            r["scenario"],
            "yes" if r["complete"] else "NO",
            r["faults_fired"],
            r["fetch_retries"],
            r["restarts"],
            "yes" if r["deterministic"] else "NO",
            "none" if not r["violations"] else f"{len(r['violations'])}!",
            f"{r['wall_seconds']:.3f}",
        ]
        for r in record["rows"]
    ]
    cfg = record["config"]
    return format_table(
        ["scenario", "complete", "faults", "retries", "restarts",
         "deterministic", "violations", "wall s"],
        rows,
        title=f"chaos matrix (seed {cfg['seed']}, "
        f"intensity {cfg['intensity']}, x{cfg['repeats']})",
    )
