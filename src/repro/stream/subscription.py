"""Subscription lifecycle and at-least-once notification delivery.

Readers subscribe to ``(var, Region)`` and get a durable subscription
id back.  Per (subscription, member) a *notifier* process on the
server side walks the subscription's watermark feed sequentially:

1. ship the watermark over the machine network (sim-time charged,
   server node -> member node), re-sending with the seeded
   ``redeliver_rate`` to model lost acks — the at-least-once channel;
2. the client side deduplicates by step, so duplicates count as
   ``deduped``, never as a second delivery;
3. acquire the member's :class:`~repro.flow.credits.CreditBank`
   credits for its partition of the step *before* handing the
   watermark to the consumer queue.

Step 3 is the backpressure rule: credits are released only when the
consumer acks the step, so a slow reader stalls its own notifier and
its delivered-but-unconsumed lag stays bounded by
``floor(budget / step_charge) + 1`` (the ``+1`` is the idle-bank
admission of :class:`~repro.flow.credits.CreditBank`).  A departed
subscription (:meth:`SubscriptionManager.unsubscribe`) accepts no new
entitlements; already-entitled watermarks drain, then every member
queue receives :data:`CLOSE`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.dataspaces.space import Region
from repro.flow.credits import CreditBank
from repro.sim.engine import Engine, Event
from repro.sim.resources import Store
from repro.stream.config import MAX_SENDS, NOTIFY_BYTES, StreamConfig
from repro.stream.partition import member_charge_bytes

__all__ = ["CLOSE", "MemberStats", "Subscription", "SubscriptionManager", "Watermark"]

#: queue sentinel: the subscription has drained, the consumer may exit
CLOSE = object()


@dataclass(frozen=True)
class Watermark:
    """A step-completion record: *var* over *region* is committed at
    *version*, published into the stream at *t_published*."""

    var: str
    step: int
    region: Region
    version: int
    t_published: float


@dataclass
class MemberStats:
    """Delivery/consumption ledger of one (subscription, member)."""

    sent: int = 0
    delivered: int = 0
    deduped: int = 0
    consumed: int = 0
    max_lag: int = 0
    bytes_fetched: float = 0.0
    notify_latencies: list = field(default_factory=list)
    consumed_steps: list = field(default_factory=list)

    @property
    def lag(self) -> int:
        """Steps delivered to this member but not yet acked."""
        return self.delivered - self.consumed


class Subscription:
    """One durable subscription: shared feed, per-member cursors."""

    def __init__(
        self,
        env: Engine,
        sid: int,
        var: str,
        region: Region,
        member_nodes: tuple[int, ...],
        banks: list[CreditBank],
    ):
        self.env = env
        self.id = sid
        self.var = var
        self.region = region
        self.member_nodes = tuple(member_nodes)
        self.banks = banks
        #: True while new publishes are entitled to this subscription
        self.active = True
        #: entitled watermarks, in entitlement order (shared by members)
        self.feed: list[Watermark] = []
        self.cursors = [0] * self.nmembers
        self.queues = [Store(env) for _ in range(self.nmembers)]
        #: per-member delivered-step dedup sets
        self.seen: list[set] = [set() for _ in range(self.nmembers)]
        self.stats = [MemberStats() for _ in range(self.nmembers)]
        self._wake: Optional[Event] = None

    @property
    def nmembers(self) -> int:
        return len(self.member_nodes)

    @property
    def max_lag(self) -> int:
        """Largest delivered-unconsumed lag any member ever reached."""
        return max(st.max_lag for st in self.stats)

    def wake_event(self) -> Event:
        """Event the notifiers wait on for new feed entries."""
        if self._wake is None or self._wake.triggered:
            self._wake = self.env.event()
        return self._wake

    def wake(self) -> None:
        """Fire the pending wake event (new feed entry or retirement)."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()


class SubscriptionManager:
    """Server-side registry of subscriptions plus their notifiers."""

    def __init__(
        self,
        env: Engine,
        machine,
        ds,
        config: StreamConfig,
        *,
        checker=None,
    ):
        self.env = env
        self.machine = machine
        self.ds = ds
        self.config = config
        self.server_node = ds.server_nodes[0]
        self.checker = checker
        self._subs: dict[int, Subscription] = {}
        self._next_id = 0
        self._notifiers: dict[int, list] = {}
        #: chronological event log: (t, kind, sub, member, step) with
        #: kind in {"dlv", "dup", "ack"} — the scenario's fingerprint
        self.events: list[tuple] = []

    # -- lifecycle ----------------------------------------------------------
    def subscribe(
        self,
        var: str,
        region: Region,
        member_nodes,
        *,
        initial_feed=(),
        credit_bytes: Optional[float] = None,
    ) -> Subscription:
        """Register a subscription; spawns one notifier per member."""
        self.ds.index(var)  # validates declaration
        member_nodes = tuple(member_nodes)
        if not member_nodes:
            raise ValueError("need at least one member node")
        capacity = float("inf") if credit_bytes is None else float(credit_bytes)
        sid = self._next_id
        self._next_id += 1
        banks = [
            CreditBank(self.env, rank=m, capacity=capacity,
                       config=self.config.flow_config())
            for m in range(len(member_nodes))
        ]
        sub = Subscription(self.env, sid, var, region, member_nodes, banks)
        self._subs[sid] = sub
        if self.checker is not None:
            self.checker.on_subscribed(sid, sub.nmembers, self.env.now)
        for wm in initial_feed:
            self._entitle(sub, wm)
        self._notifiers[sid] = [
            self.env.process(
                self._notifier(sub, m), name=f"stream-notify-{sid}.{m}"
            )
            for m in range(sub.nmembers)
        ]
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("stream_subscriptions")
        return sub

    def unsubscribe(self, sub_id: int) -> None:
        """Retire *sub_id*: no new entitlements; the already-entitled
        feed drains, then every member queue receives CLOSE."""
        sub = self._subs.get(sub_id)
        if sub is None:
            raise KeyError(f"unknown stream subscription {sub_id}")
        sub.active = False
        sub.wake()

    def close(self) -> None:
        """Retire every subscription (end-of-run drain)."""
        for sub in self._subs.values():
            sub.active = False
            sub.wake()

    # -- publishing ---------------------------------------------------------
    def dispatch(self, wm: Watermark) -> None:
        """Fan a published watermark out to intersecting live subs."""
        for sub in self._subs.values():
            if not sub.active or sub.var != wm.var:
                continue
            if sub.region.intersect(wm.region) is None:
                continue
            self._entitle(sub, wm)
            sub.wake()

    def _entitle(self, sub: Subscription, wm: Watermark) -> None:
        sub.feed.append(wm)
        if self.checker is not None:
            for m in range(sub.nmembers):
                self.checker.on_entitled(sub.id, m, wm.step)

    # -- delivery -----------------------------------------------------------
    def _notifier(self, sub: Subscription, m: int):
        """Process body: sequential server->member delivery loop."""
        env = self.env
        cfg = self.config
        rng = random.Random(cfg.seed * 1_000_003 + sub.id * 8191 + m * 131)
        st = sub.stats[m]
        node = sub.member_nodes[m]
        while True:
            while sub.cursors[m] >= len(sub.feed):
                if not sub.active:
                    yield sub.queues[m].put(CLOSE)
                    return
                yield sub.wake_event()
            wm = sub.feed[sub.cursors[m]]
            sub.cursors[m] += 1
            # at-least-once: a lost ack (seeded) makes the server
            # resend; the client dedups by step, so redundant arrivals
            # are counted, never re-delivered
            sends = 1
            while sends < MAX_SENDS and rng.random() < cfg.redeliver_rate:
                sends += 1
            for _ in range(sends):
                yield from self.machine.network.transfer(
                    self.server_node, node, NOTIFY_BYTES
                )
                st.sent += 1
                if self.checker is not None:
                    self.checker.on_sent(sub.id, m, wm.step)
                if wm.step in sub.seen[m]:
                    st.deduped += 1
                    self.events.append((env.now, "dup", sub.id, m, wm.step))
                    if self.checker is not None:
                        self.checker.on_deduped(sub.id, m, wm.step)
                    continue
                sub.seen[m].add(wm.step)
                st.delivered += 1
                latency = env.now - wm.t_published
                st.notify_latencies.append(latency)
                st.max_lag = max(st.max_lag, st.lag)
                self.events.append((env.now, "dlv", sub.id, m, wm.step))
                if self.checker is not None:
                    self.checker.on_delivered(sub.id, m, wm.step)
                obs = env.obs
                if obs is not None:
                    obs.metrics.observe(
                        "stream_notify_latency_seconds", latency, sub=sub.id
                    )
                    obs.metrics.gauge_max(
                        "stream_lag_steps", st.lag, sub=sub.id, member=m
                    )
            # backpressure: hold the member's credits for its partition
            # until the consumer acks — a slow reader stalls only its
            # own feed and lag never outruns the credit budget
            cut = wm.region.intersect(sub.region)
            charge = member_charge_bytes(
                self.ds.index(wm.var), cut, sub.nmembers, m
            )
            yield from sub.banks[m].request((sub.id, m, wm.step), charge)
            yield sub.queues[m].put(wm)

    # -- consumption --------------------------------------------------------
    def ack(self, sub: Subscription, member: int, wm: Watermark) -> None:
        """Consumer hand-back: release credits, account consumption."""
        st = sub.stats[member]
        sub.banks[member].release((sub.id, member, wm.step))
        st.consumed += 1
        st.consumed_steps.append(wm.step)
        self.events.append((self.env.now, "ack", sub.id, member, wm.step))
        if self.checker is not None:
            self.checker.on_consumed(sub.id, member, wm.step)
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("stream_steps_consumed", sub=sub.id)
