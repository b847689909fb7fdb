"""Schedule-perturbation fuzzer.

The simulation engine's event queue breaks ``(time, priority)`` ties by
insertion order.  Any place where the *physics* of a run accidentally
depends on that arbitrary order — one staging rank's fetch landing
before another's at the same instant, a reduce consuming its inputs in
queue order — is a hidden race.  The fuzzer hunts those: it re-runs a
workload N times, each time with a differently seeded
:class:`~repro.sim.engine.SeededTieBreaker` that randomises the order
of simultaneous same-priority events, and asserts the physics-level
result fingerprint (:func:`~repro.check.fingerprint.result_fingerprint`)
is identical to the unperturbed baseline.

Each run also records a :class:`~repro.check.trace.ScheduleTrace`; the
report keeps the executed-schedule hashes as proof that the fuzzer
explored genuinely different schedules rather than re-running one.  On
divergence the report carries a minimized event-trace diff pinpointing
the first reordered event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.check.trace import ScheduleTrace, minimized_trace_diff
from repro.sim import SeededTieBreaker, TieBreaker

__all__ = ["FuzzRun", "FuzzReport", "ScheduleFuzzer"]

#: ``runner(tie_breaker, schedule_trace) -> result fingerprint`` —
#: builds a fresh engine + workload per call, threading both hooks in.
Runner = Callable[[Optional[TieBreaker], ScheduleTrace], str]


@dataclass
class FuzzRun:
    """One perturbed execution."""

    seed: Optional[int]  # None marks the unperturbed baseline
    result_hash: str
    schedule_hash: str
    nevents: int
    trace: list = field(repr=False, default_factory=list)

    @property
    def label(self) -> str:
        return "baseline" if self.seed is None else f"seed {self.seed}"


@dataclass
class FuzzReport:
    """Outcome of a fuzzing campaign."""

    baseline: FuzzRun
    runs: list[FuzzRun]
    #: human-readable divergence reports (empty on success)
    divergences: list[str] = field(default_factory=list)

    @property
    def result_invariant(self) -> bool:
        """True when every perturbed run reproduced the baseline result."""
        return not self.divergences

    @property
    def distinct_schedules(self) -> int:
        """How many genuinely different executed schedules were seen."""
        hashes = {self.baseline.schedule_hash}
        hashes.update(r.schedule_hash for r in self.runs)
        return len(hashes)

    def summary(self) -> str:
        """One-line verdict for CLI output."""
        verdict = "INVARIANT" if self.result_invariant else "DIVERGED"
        return (
            f"{verdict}: {len(self.runs)} perturbed run(s), "
            f"{self.distinct_schedules} distinct schedule(s), "
            f"{len(self.divergences)} divergence(s); "
            f"baseline fingerprint {self.baseline.result_hash[:16]}..."
        )


class ScheduleFuzzer:
    """Drives N seeded re-executions of one workload runner.

    Parameters
    ----------
    runner:
        Callable building and running a *fresh* workload; receives the
        tie-breaker (None for the baseline) and a ScheduleTrace to
        attach, returns the run's result fingerprint.
    """

    def __init__(self, runner: Runner):
        self.runner = runner

    def _one(self, seed: Optional[int]) -> FuzzRun:
        trace = ScheduleTrace()
        tb = None if seed is None else SeededTieBreaker(seed)
        result_hash = self.runner(tb, trace)
        return FuzzRun(
            seed=seed,
            result_hash=result_hash,
            schedule_hash=trace.schedule_hash,
            nevents=trace.count,
            trace=trace.events,
        )

    def run(self, n: int, *, base_seed: int = 0) -> FuzzReport:
        """Baseline + ``n`` perturbed executions with seeds base_seed..+n-1."""
        if n < 1:
            raise ValueError("need at least one perturbed run")
        baseline = self._one(None)
        runs: list[FuzzRun] = []
        divergences: list[str] = []
        for i in range(n):
            run = self._one(base_seed + i)
            runs.append(run)
            if run.result_hash != baseline.result_hash:
                diff = minimized_trace_diff(
                    baseline.trace,
                    run.trace,
                    names=("baseline", run.label),
                )
                divergences.append(
                    f"{run.label}: result fingerprint "
                    f"{run.result_hash[:16]}... != baseline "
                    f"{baseline.result_hash[:16]}...\n{diff}"
                )
        return FuzzReport(baseline=baseline, runs=runs, divergences=divergences)
