"""Adaptive operator placement (§VII future work #2).

"Second, we are going to investigate mechanisms for dynamically
adapting system configuration and operation placement to cope with
changing resource availability or performance characteristics."

:class:`AdaptivePlacement` is a per-dump controller: the application
asks it, before every dump, which placement to use, and reports the
measured outcome afterwards.  The policy:

- start from the :class:`~repro.core.advisor.PlacementAdvisor`'s
  static recommendation;
- **demote staging -> in-compute** when the measured staging-pipeline
  latency exceeds the latency budget (results arriving too late for
  their consumer) for :data:`PATIENCE` consecutive dumps;
- **promote in-compute -> staging** when the measured visible cost of
  in-compute execution exceeds its budget (the simulation is being
  slowed too much) for :data:`PATIENCE` consecutive dumps;
- never flap faster than :data:`PATIENCE` allows.

The controller is transport-agnostic: it only sees measurements, so it
reacts identically to file-system weather, staging overload, or
operator cost drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["PlacementBudget", "PlacementDecision", "AdaptivePlacement"]

#: consecutive budget violations before the controller switches placement
PATIENCE = 2


@dataclass(frozen=True)
class PlacementBudget:
    """What the user is willing to pay, per dump."""

    max_visible_seconds: float  # simulation-side budget
    max_latency_seconds: float  # time-to-results budget

    def __post_init__(self) -> None:
        if self.max_visible_seconds <= 0 or self.max_latency_seconds <= 0:
            raise ValueError("budgets must be positive")


@dataclass
class PlacementDecision:
    """One dump's decision and (later) its measured outcome."""

    step: int
    placement: str
    reason: str
    visible_seconds: Optional[float] = None
    latency_seconds: Optional[float] = None
    violated: Optional[bool] = None


class AdaptivePlacement:
    """Per-dump placement controller, starting from the *initial*
    placement (the advisor's static recommendation)."""

    def __init__(self, budget: PlacementBudget, *, initial: str = "staging"):
        if initial not in ("staging", "incompute"):
            raise ValueError(f"bad initial placement {initial!r}")
        self.budget = budget
        self.current = initial
        self.history: list[PlacementDecision] = []
        self._violations = 0
        self.switches = 0

    # -- the control loop --------------------------------------------------
    def decide(self, step: int) -> PlacementDecision:
        """Placement for dump *step* (call before writing)."""
        decision = PlacementDecision(
            step=step,
            placement=self.current,
            reason=(
                "initial"
                if not self.history
                else f"{self._violations} recent budget violations"
            ),
        )
        self.history.append(decision)
        return decision

    def report(
        self, step: int, *, visible_seconds: float, latency_seconds: float
    ) -> None:
        """Measured outcome of dump *step* (call after completion)."""
        decision = next(
            (d for d in reversed(self.history) if d.step == step), None
        )
        if decision is None:
            raise KeyError(f"no decision recorded for step {step}")
        decision.visible_seconds = visible_seconds
        decision.latency_seconds = latency_seconds
        if decision.placement == "staging":
            violated = latency_seconds > self.budget.max_latency_seconds
        else:
            violated = visible_seconds > self.budget.max_visible_seconds
        decision.violated = violated
        if violated:
            self._violations += 1
            if self._violations >= PATIENCE:
                self._switch()
        else:
            self._violations = 0

    def _switch(self) -> None:
        self.current = (
            "incompute" if self.current == "staging" else "staging"
        )
        self._violations = 0
        self.switches += 1

    # -- reporting -------------------------------------------------------------
    def violation_rate(self) -> float:
        """Fraction of completed dumps that missed their budget."""
        done = [d for d in self.history if d.violated is not None]
        if not done:
            return 0.0
        return sum(1 for d in done if d.violated) / len(done)
