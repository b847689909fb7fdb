"""Resilience knobs for the staging pipeline.

All times are simulated seconds.  ``StagingConfig.resilience`` holds an
instance of :class:`ResilienceConfig` (or ``None``, which disables the
whole failure-handling path and preserves the exact pre-resilience
behaviour of the pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HEARTBEAT_INTERVAL", "HEARTBEAT_TIMEOUT", "ResilienceConfig"]

#: period of the staging-rank heartbeats (and of the monitor's liveness
#: sweep)
HEARTBEAT_INTERVAL = 0.5
#: silence after which a staging rank is declared dead; detection
#: latency is roughly this plus one sweep
HEARTBEAT_TIMEOUT = 2.0


@dataclass(frozen=True)
class ResilienceConfig:
    """Fetch retry parameters of the failure-handling path.

    Attributes
    ----------
    fetch_timeout:
        Per-attempt wall clock allowed for one RDMA fetch before it is
        abandoned and retried.
    fetch_retry_backoff:
        Initial delay before re-issuing a failed fetch; doubles on every
        further attempt (exponential backoff).
    fetch_max_attempts:
        Total fetch attempts before :class:`~repro.faults.errors.FetchTimeout`.
    """

    fetch_timeout: float = 10.0
    fetch_retry_backoff: float = 0.05
    fetch_max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.fetch_timeout <= 0 or self.fetch_retry_backoff < 0:
            raise ValueError("fetch timing parameters must be positive")
        if self.fetch_max_attempts < 1:
            raise ValueError("need at least one fetch attempt")
