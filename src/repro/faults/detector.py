"""Sim-time heartbeat failure detector for the staging area.

Each watched staging rank runs a tiny *beat* process that stamps a
liveness time while its node is up; a monitor process sweeps the stamps
every :data:`~repro.faults.config.HEARTBEAT_INTERVAL` and declares any
rank silent for longer than :data:`~repro.faults.config.HEARTBEAT_TIMEOUT`
dead, firing the registered callbacks once per rank.

This mirrors the membership service a real staging deployment would run
over its control channel: detection is *delayed* (roughly the timeout
plus one sweep), so the pipeline observes a realistic window in which
survivors block on collectives with a dead peer before recovery kicks
in — that window is part of the measured recovery latency.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.faults.config import HEARTBEAT_INTERVAL, HEARTBEAT_TIMEOUT

__all__ = ["FailureDetector"]


class FailureDetector:
    """Heartbeat-based liveness monitor on the simulation engine *env*."""

    def __init__(self, env):
        self.env = env
        self._watched: dict[int, Callable[[], bool]] = {}
        self.last_beat: dict[int, float] = {}
        self.failed: set[int] = set()
        self.detected_at: dict[int, float] = {}
        self._callbacks: list[Callable[[list[int]], None]] = []
        self._stopped = False
        self._started = False

    # -- wiring -----------------------------------------------------------
    def watch(self, rank: int, alive_fn: Callable[[], bool]) -> None:
        """Track *rank*; ``alive_fn()`` tells whether its node is up."""
        self._watched[rank] = alive_fn
        self.last_beat[rank] = self.env.now

    def on_failure(self, callback: Callable[[list[int]], None]) -> None:
        """Register ``callback(newly_failed_ranks)``."""
        self._callbacks.append(callback)

    def start(self) -> None:
        """Spawn heartbeat + monitor processes (idempotent)."""
        if self._started:
            return
        self._started = True
        for rank in sorted(self._watched):
            self.env.process(self._beat(rank), name=f"heartbeat[{rank}]")
        self.env.process(self._monitor(), name="failure-monitor")

    def stop(self) -> None:
        """Wind down all detector processes at their next wake-up."""
        self._stopped = True

    # -- processes --------------------------------------------------------
    def _beat(self, rank: int) -> Generator:
        alive = self._watched[rank]
        while not self._stopped and alive():
            self.last_beat[rank] = self.env.now
            yield self.env.timeout(HEARTBEAT_INTERVAL)
        return None

    def _monitor(self) -> Generator:
        while not self._stopped:
            yield self.env.timeout(HEARTBEAT_INTERVAL)
            now = self.env.now
            newly = [
                r
                for r in sorted(self._watched)
                if r not in self.failed and now - self.last_beat[r] > HEARTBEAT_TIMEOUT
            ]
            if newly:
                self.failed.update(newly)
                for r in newly:
                    self.detected_at[r] = now
                for cb in list(self._callbacks):
                    cb(newly)
        return None
