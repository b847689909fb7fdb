"""Flow-control knobs (credits, watermarks, spill, CoDel target).

All sizes are bytes, all times simulated seconds.  ``FlowConfig`` is
carried by :class:`repro.flow.FlowControl`; passing ``flow=None`` to
:class:`~repro.core.middleware.PreDatA` (the default) disables the
whole subsystem and preserves byte-identical pre-flow behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["FlowConfig"]


@dataclass(frozen=True)
class FlowConfig:
    """Flow-control parameters.

    Attributes
    ----------
    pool_bytes:
        Governed buffer-pool capacity per staging node.  This is the
        knob that caps staging memory below the physical node size
        (e.g. 1/4 of the working set for the memory-pressure
        experiments).  ``None`` means the whole node memory.
    high_watermark / low_watermark:
        Occupancy fractions of the pool.  Crossing ``high`` starts
        spilling cold (unpinned) chunks to the file system until
        occupancy falls back to ``low``; between ``low`` and ``high``
        new fetches are progressively throttled.
    spill_enabled:
        When False the pool never spills: waiters simply block until
        releases make room (pure backpressure).
    credit_bytes:
        Byte credits each staging rank grants to the compute clients it
        serves.  ``None`` derives the budget from the pool capacity
        divided evenly among the ranks sharing the node.
    codel_target:
        CoDel-style sojourn-time target for the credit admission queue.
        A write whose credit wait exceeds the (progressively shrinking)
        allowance *degrades* to the synchronous fallback path instead
        of queueing forever.  ``None`` (default) disables degradation:
        writes block until credits free up, which keeps operator
        results byte-identical to an uncapped run.
    codel_interval:
        Sliding window over which the degrade allowance recovers after
        a grant whose sojourn met the target.
    max_block:
        Anti-starvation bound on how long one admission may hold a
        fetch at/above the high watermark before it proceeds anyway
        (the pool acquire still enforces the hard memory bound).
    """

    pool_bytes: Optional[float] = None
    high_watermark: float = 0.85
    low_watermark: float = 0.60
    spill_enabled: bool = True
    credit_bytes: Optional[float] = None
    codel_target: Optional[float] = None
    codel_interval: float = 0.1
    max_block: float = 5.0

    def __post_init__(self) -> None:
        if self.pool_bytes is not None and self.pool_bytes <= 0:
            raise ValueError("pool_bytes must be positive")
        if not 0.0 < self.low_watermark <= self.high_watermark <= 1.0:
            raise ValueError("need 0 < low_watermark <= high_watermark <= 1")
        if self.credit_bytes is not None and self.credit_bytes <= 0:
            raise ValueError("credit_bytes must be positive")
        if self.codel_target is not None and self.codel_target <= 0:
            raise ValueError("codel_target must be positive")
        if self.codel_interval <= 0:
            raise ValueError("codel_interval must be positive")
        if self.max_block <= 0:
            raise ValueError("max_block must be positive")
