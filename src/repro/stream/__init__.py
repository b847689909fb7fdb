"""Pub/sub step streaming over DataSpaces (the coupled-workflow layer).

Turns the one-shot dump pipeline into a persistent data service:
producers publish per-step watermarks into a
:class:`~repro.stream.publisher.StepStream`; reader applications
subscribe mid-run to ``(var, Region)``, receive at-least-once
notifications deduplicated per step, and pull only their SFC-owned
partition via ``DataSpaces.get`` — with per-consumer flow credits
bounding how far a slow reader's lag can grow.

Components:

- :mod:`repro.stream.subscription` — durable subscription ids,
  unsubscribe, per-member notifier processes (the delivery timing
  model), credit backpressure;
- :mod:`repro.stream.publisher` — :class:`StepStream` (publish /
  subscribe / catch-up) and the event-free :class:`StreamBridge`
  coupling a live staging pipeline to the stream;
- :mod:`repro.stream.consumer` — :class:`ConsumerGroup`: N reader
  ranks sharing one subscription, partitioned by SFC block owner;
- :mod:`repro.stream.scenario` / :mod:`repro.stream.bench` — the
  seeded coupled-workflow scenario behind ``python -m repro stream``
  and its ``BENCH_stream.json`` guard.
"""

from repro.stream.config import StreamConfig
from repro.stream.consumer import ConsumerGroup
from repro.stream.partition import block_owner, member_charge_bytes, member_pieces
from repro.stream.publisher import StepRecord, StepStream, StreamBridge
from repro.stream.scenario import StreamRun, run_stream
from repro.stream.subscription import (
    CLOSE,
    MemberStats,
    Subscription,
    SubscriptionManager,
    Watermark,
)

__all__ = [
    "CLOSE",
    "ConsumerGroup",
    "MemberStats",
    "StepRecord",
    "StepStream",
    "StreamBridge",
    "StreamConfig",
    "StreamRun",
    "Subscription",
    "SubscriptionManager",
    "Watermark",
    "block_owner",
    "member_charge_bytes",
    "member_pieces",
    "run_stream",
]
