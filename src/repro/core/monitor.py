"""Online monitoring and steering on top of PreDatA results.

The paper's introduction motivates in-transit statistics with exactly
this loop: "statistical measures that can be used to validate the
veracity of the ongoing simulation, gain understanding of the
simulation progress, and potentially, take early action when the
simulation operates improperly" (§I; §VI lists runtime steering as an
application of PreDatA's low-overhead extraction).

:class:`OnlineMonitor` subscribes to a
:class:`~repro.core.staging.StagingService`'s per-step completions and
evaluates user *watch conditions* against each operator's finalized
results.  A condition firing produces an :class:`Alarm` and invokes an
optional steering action — e.g. flip a flag the simulation polls at
its next iteration (abort, re-tune, checkpoint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.staging import StagingService

__all__ = ["Alarm", "OnlineMonitor", "SteeringFlag"]


@dataclass(frozen=True)
class Alarm:
    """One fired watch condition."""

    step: int
    operator: str
    message: str
    sim_time: float


@dataclass
class _Watch:
    operator: str
    condition: Callable[[list[Any]], Optional[str]]
    action: Optional[Callable[["Alarm"], None]]


class SteeringFlag:
    """A latch the simulation can poll between iterations."""

    def __init__(self) -> None:
        self._set = False
        self.reason: Optional[Alarm] = None

    def set(self, alarm: Alarm) -> None:
        """Latch the flag; the first alarm becomes the recorded reason."""
        self._set = True
        if self.reason is None:
            self.reason = alarm

    def __bool__(self) -> bool:
        return self._set


class OnlineMonitor:
    """Evaluates watch conditions as staging steps complete.

    Parameters
    ----------
    service: the staging service to observe.

    Usage::

        monitor = OnlineMonitor(predata.service)
        abort = SteeringFlag()
        monitor.watch(
            "hist:electrons[6]",
            condition=lambda results: (
                "weight histogram collapsed"
                if all(r is None or r["counts"].max() >
                       0.5 * r["counts"].sum()
                       for r in results if r is not None)
                else None
            ),
            action=abort.set,
        )
        # ... in the app loop:  if abort: break
    """

    def __init__(self, service: StagingService):
        self.service = service
        self._watches: list[_Watch] = []
        self.alarms: list[Alarm] = []
        self._done_ranks: dict[int, int] = {}
        service.add_step_listener(self._on_rank_done)

    def watch(
        self,
        operator: str,
        condition: Callable[[list[Any]], Optional[str]],
        action: Optional[Callable[[Alarm], None]] = None,
    ) -> None:
        """Evaluate *condition* on each step's results of *operator*.

        ``condition`` receives the per-staging-rank finalize results
        (list ordered by rank; entries may be None for non-owning
        ranks) and returns an alarm message, or None when healthy.
        """
        known = {op.name for op in self.service.operators}
        if operator not in known:
            raise KeyError(f"no operator named {operator!r} in the service")
        self._watches.append(_Watch(operator, condition, action))

    # -- service callback ------------------------------------------------
    def _on_rank_done(self, step: int, rank: int) -> None:
        self._done_ranks[step] = self._done_ranks.get(step, 0) + 1
        if self._done_ranks[step] < self.service.world.size:
            return
        for watch in self._watches:
            per_rank = self.service.results[watch.operator].get(step, {})
            results = [
                per_rank.get(r) for r in range(self.service.world.size)
            ]
            message = watch.condition(results)
            if message is not None:
                alarm = Alarm(
                    step=step,
                    operator=watch.operator,
                    message=message,
                    sim_time=self.service.env.now,
                )
                self.alarms.append(alarm)
                if watch.action is not None:
                    watch.action(alarm)

    def alarms_for(self, operator: str) -> list[Alarm]:
        """All alarms raised by watches on *operator*."""
        return [a for a in self.alarms if a.operator == operator]
