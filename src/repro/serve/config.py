"""Knobs of the query-serving subsystem.

All sizes are bytes and all times simulated seconds, matching the
conventions of :mod:`repro.flow`.  The service-time constants model a
staging node answering index queries: a fixed per-shard dispatch
overhead plus per-row costs for candidate checks and result shipping,
with scatter/gather network hops around the shard work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.flow.config import FlowConfig

__all__ = ["NSHARDS", "ROUTE_SECONDS", "STALE_BOUND", "ServeConfig"]

#: index shards (one per owning staging node): partitions are assigned
#: to shards by Hilbert-SFC hashing of their key interval; queries
#: scatter to owning shards and gather
NSHARDS = 4
#: how many versions stale a *degraded* cache read may be.  Fresh reads
#: always require the current version; a commit removes the step's
#: entries outright, so no post-commit stale read exists
STALE_BOUND = 1
#: one scatter or gather network hop to/from a shard owner
ROUTE_SECONDS = 2e-4

#: capacity (entries) of the front result/index cache, LRU-evicted
CACHE_ENTRIES = 512
#: admission charge per query: the modelled buffer/result footprint a
#: query pins while being served
QUERY_COST_BYTES = 64e3
#: time to answer straight from the front cache
CACHE_HIT_SECONDS = 5e-5


@dataclass(frozen=True)
class ServeConfig:
    """Query-serving parameters.

    Attributes
    ----------
    credit_bytes:
        Admission budget: byte credits outstanding across in-flight
        queries (each query charges :data:`QUERY_COST_BYTES`).
    codel_target:
        CoDel sojourn target for the admission queue: a query waiting
        longer than the (shrinking) allowance degrades to a
        stale-but-bounded cache read instead of queueing unboundedly.
        ``None`` disables degradation (queries block for admission); the
        allowance recovers over :data:`repro.flow.config.CODEL_INTERVAL`.
    shard_overhead_seconds:
        Fixed dispatch cost of one shard executing one sub-query.
    row_check_seconds:
        Per candidate row examined against raw values on a shard.
    row_emit_seconds:
        Per result row shipped back to the gatherer.
    """

    credit_bytes: float = 2 * 2**20
    codel_target: Optional[float] = 0.02
    shard_overhead_seconds: float = 2e-4
    row_check_seconds: float = 5e-7
    row_emit_seconds: float = 1e-7

    def __post_init__(self) -> None:
        if self.credit_bytes <= 0:
            raise ValueError("credit bytes must be positive")
        if self.codel_target is not None and self.codel_target <= 0:
            raise ValueError("codel_target must be positive")
        for name in (
            "shard_overhead_seconds",
            "row_check_seconds",
            "row_emit_seconds",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def flow_config(self) -> FlowConfig:
        """The :class:`FlowConfig` behind the admission credit bank."""
        return FlowConfig(credit_bytes=self.credit_bytes, codel_target=self.codel_target)
