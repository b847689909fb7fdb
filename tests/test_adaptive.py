"""Tests for the adaptive placement controller."""

import pytest

from repro.core.adaptive import (
    PATIENCE,
    AdaptivePlacement,
    PlacementBudget,
    PlacementDecision,
)

BUDGET = PlacementBudget(max_visible_seconds=2.0, max_latency_seconds=60.0)


def test_budget_validation():
    with pytest.raises(ValueError):
        PlacementBudget(0.0, 1.0)
    with pytest.raises(ValueError):
        PlacementBudget(1.0, -1.0)


def test_controller_validation():
    with pytest.raises(ValueError):
        AdaptivePlacement(BUDGET, initial="offline")


def test_stays_put_when_healthy():
    ctl = AdaptivePlacement(BUDGET, initial="staging")
    for step in range(5):
        d = ctl.decide(step)
        assert d.placement == "staging"
        ctl.report(step, visible_seconds=0.1, latency_seconds=30.0)
    assert ctl.switches == 0
    assert ctl.violation_rate() == 0.0


def test_demotes_staging_on_latency_violations():
    ctl = AdaptivePlacement(BUDGET, initial="staging")
    ctl.decide(0)
    ctl.report(0, visible_seconds=0.1, latency_seconds=90.0)  # violation 1
    assert ctl.decide(1).placement == "staging"  # patience not exhausted
    ctl.report(1, visible_seconds=0.1, latency_seconds=95.0)  # violation 2
    assert ctl.decide(2).placement == "incompute"
    assert ctl.switches == 1


def test_promotes_incompute_on_visible_cost():
    ctl = AdaptivePlacement(BUDGET, initial="incompute")
    for step in range(PATIENCE):
        assert ctl.decide(step).placement == "incompute"
        ctl.report(step, visible_seconds=5.0, latency_seconds=1.0)
    assert ctl.decide(PATIENCE).placement == "staging"


def test_single_violation_resets_on_recovery():
    ctl = AdaptivePlacement(BUDGET, initial="staging")
    ctl.decide(0)
    ctl.report(0, visible_seconds=0.1, latency_seconds=90.0)  # violation
    ctl.decide(1)
    ctl.report(1, visible_seconds=0.1, latency_seconds=30.0)  # healthy
    ctl.decide(2)
    ctl.report(2, visible_seconds=0.1, latency_seconds=90.0)  # violation
    assert ctl.decide(3).placement == "staging"  # streak broken, no switch
    assert ctl.switches == 0


def test_oscillation_both_ways():
    # staging breaks its latency budget; incompute breaks its visible
    # budget: the controller alternates but only after patience expires.
    ctl = AdaptivePlacement(BUDGET, initial="staging")
    placements = []
    for step in range(2 * PATIENCE + 1):
        d = ctl.decide(step)
        placements.append(d.placement)
        ctl.report(step, visible_seconds=9.0, latency_seconds=90.0)
    assert placements == ["staging"] * PATIENCE + ["incompute"] * PATIENCE + ["staging"]
    assert ctl.switches == 2


def test_report_unknown_step():
    ctl = AdaptivePlacement(BUDGET)
    with pytest.raises(KeyError):
        ctl.report(7, visible_seconds=1.0, latency_seconds=1.0)


def test_history_records_outcomes():
    ctl = AdaptivePlacement(BUDGET, initial="staging")
    ctl.decide(0)
    ctl.report(0, visible_seconds=0.2, latency_seconds=10.0)
    d = ctl.history[0]
    assert isinstance(d, PlacementDecision)
    assert d.visible_seconds == 0.2
    assert d.latency_seconds == 10.0
    assert d.violated is False


def test_violation_rate():
    ctl = AdaptivePlacement(BUDGET, initial="staging")
    for step, lat in enumerate([90.0, 30.0, 90.0, 90.0]):
        ctl.decide(step)
        ctl.report(step, visible_seconds=0.1, latency_seconds=lat)
    assert ctl.violation_rate() == pytest.approx(0.75)
