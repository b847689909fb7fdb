"""Schedule-perturbation fuzzing + pluggable engine tie-breaking."""

from __future__ import annotations

import heapq

import pytest

from repro.check import (
    ScheduleFuzzer,
    ScheduleTrace,
    result_fingerprint,
    run_workload,
)
from repro.sim import Engine, SeededTieBreaker, TieBreaker


def _runner(kind="sort", seed=7, **kw):
    def run(tie_breaker, schedule_trace):
        r = run_workload(
            kind,
            seed=seed,
            tie_breaker=tie_breaker,
            schedule_trace=schedule_trace,
            **kw,
        )
        return result_fingerprint(r.predata)

    return run


# -- tie-breaker satellite --------------------------------------------------


def test_default_tie_breaker_is_byte_identical():
    """Engine() and Engine(tie_breaker=TieBreaker()) run the same heap."""
    t_default, t_explicit = ScheduleTrace(), ScheduleTrace()
    a = run_workload("sort", seed=1, schedule_trace=t_default)
    b = run_workload(
        "sort", seed=1, tie_breaker=TieBreaker(), schedule_trace=t_explicit
    )
    assert t_default.schedule_hash == t_explicit.schedule_hash
    assert result_fingerprint(a.predata) == result_fingerprint(b.predata)


def test_default_tie_breaker_sub_key_is_zero():
    tb = TieBreaker()
    assert tb.sub_key(0.0, 1, 0, None) == 0
    assert tb.sub_key(5.0, 0, 12345, None) == 0


def test_seeded_tie_breaker_is_deterministic_per_seed():
    a, b, c = SeededTieBreaker(9), SeededTieBreaker(9), SeededTieBreaker(10)
    keys_a = [a.sub_key(1.0, 1, i, None) for i in range(20)]
    keys_b = [b.sub_key(1.0, 1, i, None) for i in range(20)]
    keys_c = [c.sub_key(1.0, 1, i, None) for i in range(20)]
    assert keys_a == keys_b
    assert keys_a != keys_c
    assert len(set(keys_a)) > 1, "seeded sub-keys must actually vary"


def test_sub_key_orders_simultaneous_events():
    """The sub-key slots between priority and insertion order."""
    tb = SeededTieBreaker(3)
    heap = []
    for seq in range(6):
        heapq.heappush(heap, (1.0, 0, tb.sub_key(1.0, 0, seq, None), seq, seq))
    popped = [heapq.heappop(heap)[3] for _ in range(6)]
    assert sorted(popped) == list(range(6))
    assert popped != list(range(6)), "seed 3 should reorder at least one tie"


def test_engine_accepts_tie_breaker_kwarg():
    eng = Engine(tie_breaker=SeededTieBreaker(1))
    fired = []

    def main():
        yield eng.timeout(1.0)
        fired.append(eng.now)

    eng.process(main())
    eng.run()
    assert fired == [1.0]


# -- the fuzzer itself ------------------------------------------------------


def test_fuzz_results_invariant_with_distinct_schedules():
    report = ScheduleFuzzer(_runner()).run(4)
    assert report.result_invariant, "\n".join(report.divergences)
    assert report.distinct_schedules > 1, (
        "seeded tie-breaking never produced a different executed schedule"
    )
    assert all(r.nevents == report.baseline.nevents for r in report.runs)


def test_fuzz_same_seed_replays_identically():
    fz = ScheduleFuzzer(_runner())
    one = fz.run(1)
    two = fz.run(1)
    assert one.runs[0].schedule_hash == two.runs[0].schedule_hash
    assert one.runs[0].result_hash == two.runs[0].result_hash


def test_fuzz_divergence_reported_with_minimized_diff():
    """A runner whose 'result' depends on the schedule must be caught."""

    def bad_runner(tie_breaker, schedule_trace):
        run_workload(
            "minmax",
            seed=0,
            tie_breaker=tie_breaker,
            schedule_trace=schedule_trace,
        )
        # deliberately leak the executed order into the "result"
        return schedule_trace.schedule_hash

    report = ScheduleFuzzer(bad_runner).run(3)
    assert not report.result_invariant
    assert report.divergences
    assert "divergence at event #" in report.divergences[0]
    assert "DIVERGED" in report.summary()


def test_fuzz_rejects_zero_runs():
    with pytest.raises(ValueError):
        ScheduleFuzzer(_runner()).run(0)


# -- pytest plugin ----------------------------------------------------------


_BASE = {}


@pytest.mark.fuzz_schedule(n=3, base_seed=11)
def test_marker_parametrizes_and_results_hold(fuzz_seed, tie_breaker,
                                              schedule_trace):
    assert fuzz_seed in (11, 12, 13)
    assert isinstance(tie_breaker, SeededTieBreaker)
    run = run_workload(
        "histogram", seed=2, tie_breaker=tie_breaker,
        schedule_trace=schedule_trace,
    )
    fp = result_fingerprint(run.predata)
    base = _BASE.setdefault("fp", fp)
    assert fp == base, f"seed {fuzz_seed} changed the physics"
    assert schedule_trace.count > 0


def test_fixtures_default_to_unperturbed(tie_breaker, invariant_checker):
    assert tie_breaker is None
    run = run_workload("minmax", seed=4, check=invariant_checker)
    invariant_checker.verify(run.predata)
