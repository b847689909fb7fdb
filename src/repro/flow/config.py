"""Flow-control knobs (pool size, credits, CoDel target) and constants.

All sizes are bytes, all times simulated seconds.  ``FlowConfig`` is
carried by :class:`repro.flow.FlowControl`; passing ``flow=None`` to
:class:`~repro.core.middleware.PreDatA` (the default) disables the
whole subsystem and preserves byte-identical pre-flow behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["CODEL_INTERVAL", "FlowConfig", "HIGH_WATERMARK", "LOW_WATERMARK", "MAX_BLOCK"]

#: pool occupancy fractions: crossing ``HIGH_WATERMARK`` starts spilling
#: cold (unpinned) chunks to the file system until occupancy falls back
#: to ``LOW_WATERMARK``; between the two, new fetches are progressively
#: throttled
HIGH_WATERMARK = 0.85
LOW_WATERMARK = 0.60
#: window over which a CoDel degrade allowance recovers after a grant
#: whose sojourn met the target (staging credits and query admission)
CODEL_INTERVAL = 0.1
#: anti-starvation bound on how long one admission may hold a fetch at
#: or above the high watermark before it proceeds anyway (the pool
#: acquire still enforces the hard memory bound)
MAX_BLOCK = 5.0


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
    """

    pool_bytes: Optional[float] = None
    credit_bytes: Optional[float] = None
    codel_target: Optional[float] = None

    def __post_init__(self) -> None:
        if self.pool_bytes is not None and self.pool_bytes <= 0:
            raise ValueError("pool_bytes must be positive")
        if self.credit_bytes is not None and self.credit_bytes <= 0:
            raise ValueError("credit_bytes must be positive")
        if self.codel_target is not None and self.codel_target <= 0:
            raise ValueError("codel_target must be positive")
