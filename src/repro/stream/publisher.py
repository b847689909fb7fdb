"""The step-stream publisher: watermarks over DataSpaces.

:class:`StepStream` is the pub/sub face of a DataSpaces instance.
Producers ``put()`` their pieces as usual; when a step is complete
they ``publish(var, step)`` and every intersecting subscriber receives
a ``(step, region, version)`` watermark — a step stream without files.
Subscribers pull only the pieces intersecting their partition via
``DataSpaces.get``, so data moves on demand, not on publish.

:class:`StreamBridge` couples a running
:class:`~repro.core.staging.StagingService` to the stream *without
touching the engine*: it is a synchronous commit listener recording a
:class:`StepRecord` per (var, step) once every active staging rank has
committed.  A pipeline run with the bridge attached is byte-identical
(result fingerprint and schedule hash) to one without — streaming
costs nothing until the records are replayed into a live stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dataspaces.space import Region
from repro.sim.engine import Engine
from repro.stream.config import StreamConfig
from repro.stream.subscription import Subscription, SubscriptionManager, Watermark

__all__ = ["StepRecord", "StepStream", "StreamBridge"]


class StepStream:
    """Pub/sub step streaming layered on a DataSpaces instance."""

    def __init__(
        self,
        env: Engine,
        machine,
        ds,
        config: Optional[StreamConfig] = None,
        *,
        checker=None,
    ):
        self.env = env
        self.machine = machine
        self.ds = ds
        self.config = config or StreamConfig()
        self.checker = checker
        self.manager = SubscriptionManager(env, machine, ds, self.config, checker=checker)
        #: committed watermarks per var, in publish order
        self.log: dict[str, list[Watermark]] = {}

    # -- publishing ---------------------------------------------------------
    def publish(self, var: str, step: int) -> Watermark:
        """Record completion of *step* over the whole declared domain,
        at the domain's current committed version, and notify subscribers."""
        idx = self.ds.index(var)
        region = Region((0,) * len(idx.dims), idx.dims)
        wm = Watermark(var, step, region, self.ds.version(var), self.env.now)
        self.log.setdefault(var, []).append(wm)
        if self.checker is not None:
            self.checker.on_published(var, step)
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("stream_steps_published", var=var)
        self.manager.dispatch(wm)
        return wm

    @property
    def published(self) -> int:
        """Total watermarks published across all vars."""
        return sum(len(v) for v in self.log.values())

    # -- subscribing --------------------------------------------------------
    def subscribe(
        self,
        var: str,
        region: Region,
        member_nodes,
        *,
        catchup: str = "latest",
        credit_bytes: Optional[float] = None,
    ) -> Subscription:
        """Subscribe *member_nodes* to ``(var, region)``.

        ``catchup="latest"`` entitles the most recently committed
        intersecting step up front, so a mid-run joiner starts from
        live data; ``catchup="none"`` starts with the next publish.
        Returns the durable :class:`Subscription`.
        """
        if catchup not in ("latest", "none"):
            raise ValueError(f"unknown catchup policy {catchup!r}")
        initial = []
        if catchup == "latest":
            for wm in reversed(self.log.get(var, [])):
                if wm.region.intersect(region) is not None:
                    initial.append(wm)
                    break
        return self.manager.subscribe(
            var, region, member_nodes,
            initial_feed=initial, credit_bytes=credit_bytes,
        )

    def unsubscribe(self, sub_id: int) -> None:
        """Retire a subscription (see SubscriptionManager.unsubscribe)."""
        self.manager.unsubscribe(sub_id)

    def ack(self, sub: Subscription, member: int, wm: Watermark) -> None:
        """Consumer acknowledgement of a processed step."""
        self.manager.ack(sub, member, wm)

    def close(self) -> None:
        """End-of-run drain: retire every subscription."""
        self.manager.close()


@dataclass(frozen=True)
class StepRecord:
    """One committed (var, step) observed by a :class:`StreamBridge`."""

    var: str
    step: int


class StreamBridge:
    """Pure-recorder coupling from staging commits to the stream.

    Synchronous and event-free by construction: attaching it to a
    pipeline changes neither the run fingerprint nor the schedule
    hash.  ``records`` accumulates one :class:`StepRecord` per
    (var, step) the moment the last active staging rank commits it.
    """

    def __init__(self):
        self.records: list[StepRecord] = []
        self._service = None
        self._ranks_seen: dict[int, set] = {}
        self._done: set[int] = set()

    def attach(self, service) -> "StreamBridge":
        """Register on *service*'s commit hook; returns self."""
        self._service = service
        service.add_commit_listener(self._on_commit)
        return self

    def _on_commit(self, step: int, rank: int) -> None:
        seen = self._ranks_seen.setdefault(step, set())
        seen.add(rank)
        if step in self._done:
            return
        if not seen >= set(self._service.world.active_ranks):
            return
        self._done.add(step)
        for var in self._service.group.var_names:
            self.records.append(StepRecord(var, step))
