"""Destination-pressure throttling of staging fetches.

The :class:`PressureController` sits between the
:class:`~repro.core.scheduler.MovementScheduler` and the per-node
:class:`~repro.flow.pool.BufferPool`s: before a fetch touches the
wire, the scheduler asks the controller to *admit* it against the
destination node's pool.  At or above the high watermark the fetch is
held (bounded by ``max_block`` — the pool acquire itself is the hard
stop, so admission never needs to starve a fetch to be safe); between
the low and high watermarks it is slowed by a pacing delay that grows
with occupancy, so pressure shows up as reduced fetch *rate* rather
than deferral cliffs.
"""

from __future__ import annotations

from typing import Generator

from repro.flow.config import FlowConfig
from repro.flow.pool import BufferPool
from repro.sim.engine import Engine

__all__ = ["PressureController"]

#: fetch-rate multiplier at the high watermark: pressure never slows a
#: fetch below this fraction of full speed (the hard stop is the pool
#: acquire itself)
THROTTLE_FLOOR = 0.1


class PressureController:
    """Memory-pressure-aware fetch admission."""

    def __init__(
        self,
        env: Engine,
        pools: dict[int, BufferPool],
        config: FlowConfig,
        throttle_rate: float,
    ):
        if throttle_rate <= 0:
            raise ValueError("throttle_rate must be positive")
        self.env = env
        self.pools = pools
        self.config = config
        self.throttle_rate = throttle_rate
        # -- always-on stats ------------------------------------------
        self.throttled_fetches = 0
        self.blocked_fetches = 0

    def severity(self, node_id: int) -> float:
        """Pressure in [0, 1] between the low and high watermarks."""
        pool = self.pools.get(node_id)
        if pool is None or pool.capacity <= 0:
            return 0.0
        occ = pool.used
        if occ <= pool.low:
            return 0.0
        if pool.high <= pool.low:
            return 1.0
        return min(1.0, (occ - pool.low) / (pool.high - pool.low))

    def admit(self, node_id: int, nbytes: float) -> Generator:
        """Process body: hold/slow one fetch of *nbytes* into *node_id*.

        Returns the seconds the fetch was delayed by pressure.
        """
        pool = self.pools.get(node_id)
        if pool is None or nbytes <= 0:
            return 0.0
        start = self.env.now
        blocked = False
        deadline = None
        while pool.capacity > 0 and pool.used >= pool.high:
            if deadline is None:
                deadline = self.env.timeout(self.config.max_block)
            blocked = True
            fired = yield self.env.any_of([pool.wait_change(), deadline])
            if deadline in fired:
                break  # anti-starvation; the pool acquire still bounds memory
        if blocked:
            self.blocked_fetches += 1
        sev = self.severity(node_id)
        if sev > 0.0:
            mult = 1.0 - sev * (1.0 - THROTTLE_FLOOR)
            delay = (nbytes / self.throttle_rate) * (1.0 / mult - 1.0)
            if delay > 0:
                yield self.env.timeout(delay)
        held = self.env.now - start
        if held > 0:
            self.throttled_fetches += 1
            obs = self.env.obs
            if obs is not None:
                obs.metrics.inc("flow_throttled_fetches", node=node_id)
                obs.metrics.inc("flow_throttle_seconds", held, node=node_id)
                obs.span(
                    "pressure_throttle", "flow", start,
                    tid=f"node{node_id}", nbytes=nbytes, blocked=blocked,
                )
        return held
