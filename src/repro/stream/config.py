"""Configuration of the step-streaming subsystem."""

from __future__ import annotations

from dataclasses import dataclass

from repro.flow.config import FlowConfig

__all__ = ["MAX_SENDS", "NOTIFY_BYTES", "StreamConfig"]

#: wire size of one watermark notification (server -> client)
NOTIFY_BYTES = 64.0
#: hard cap on wire sends per (member, step), duplicates included
MAX_SENDS = 3


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the pub/sub step stream.

    ``redeliver_rate`` models a lost acknowledgement: after each wire
    send the server redelivers with this (seeded) probability, up to
    :data:`MAX_SENDS` total sends — the at-least-once channel whose
    duplicates the client-side dedup absorbs.
    """

    #: seeded probability that a delivered notification is re-sent
    redeliver_rate: float = 0.0
    #: seed of the redelivery draw (per-notifier streams derive from it)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.redeliver_rate < 1.0:
            raise ValueError("redeliver_rate must be in [0, 1)")

    def flow_config(self) -> FlowConfig:
        """The flow-control config for consumer credit banks."""
        return FlowConfig()
