"""The seeded coupled-workflow streaming scenario.

One producer application (P ranks writing a 2-D field into DataSpaces
every ``step_period`` sim seconds) feeds three coupled reader apps
over a :class:`~repro.stream.publisher.StepStream`:

- ``analysis`` — an in-transit analysis service (running histogram +
  occupancy bitmap) subscribed from t=0 with several members sharing
  the domain by SFC partition;
- ``follower`` — a particle-tracking follower that *joins mid-run*
  and catches up from the latest committed step;
- ``slow`` — a deliberately slow consumer (per-step processing takes
  :data:`SLOW_PROCESS_FACTOR` producer periods) on a small credit budget,
  demonstrating bounded lag under a faster producer.

Everything is seeded — field data, redelivery draws, timing — so a
run's :meth:`StreamRun.digest` is bit-identical across hosts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.apps.readers import InTransitAnalysisReader, ParticleTrackingFollower
from repro.check.stream import StreamChecker
from repro.dataspaces.space import DataSpaces, Region
from repro.machine import TESTING_TINY, Machine
from repro.sim.engine import Engine
from repro.stream.config import StreamConfig
from repro.stream.consumer import ConsumerGroup
from repro.stream.partition import member_charge_bytes
from repro.stream.publisher import StepStream

__all__ = ["GroupReport", "StreamRun", "make_field", "run_stream"]

#: histogram edges the analysis readers share (field values land in
#: roughly [-0.5, 1.5] under :func:`make_field`)
ANALYSIS_EDGES = np.linspace(-0.5, 1.5, 17)

#: the consumer side of the scenario (echoed in ``BENCH_stream.json``)
ANALYSIS_MEMBERS = 3
SLOW_MEMBERS = 1
FOLLOWER_JOIN_FRAC = 0.45
SLOW_PROCESS_FACTOR = 2.0
REDELIVER_RATE = 0.15


def make_field(step: int, grid: int, seed: int) -> np.ndarray:
    """Deterministic per-step field: a drifting Gaussian hotspot."""
    rng = np.random.default_rng(seed * 7919 + step)
    yy, xx = np.mgrid[0:grid, 0:grid].astype(float)
    cx, cy = rng.uniform(0.2 * grid, 0.8 * grid, size=2)
    blob = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (0.02 * grid * grid))
    return blob + 0.05 * rng.standard_normal((grid, grid))


@dataclass
class GroupReport:
    """Summary of one consumer group's run."""

    name: str
    members: int
    subscribed_at: float
    first_step: Optional[int]
    entitled: int
    sent: int
    delivered: int
    deduped: int
    consumed: int
    max_lag: int
    bytes_fetched: float
    throughput: float  # consumed steps per member per sim second
    notify_p50: float
    notify_p99: float

    def to_dict(self) -> dict:
        """JSON-serialisable form (for the bench sidecar)."""
        return {
            "name": self.name,
            "members": self.members,
            "subscribed_at": self.subscribed_at,
            "first_step": self.first_step,
            "entitled": self.entitled,
            "sent": self.sent,
            "delivered": self.delivered,
            "deduped": self.deduped,
            "consumed": self.consumed,
            "max_lag": self.max_lag,
            "bytes_fetched": self.bytes_fetched,
            "throughput": self.throughput,
            "notify_p50": self.notify_p50,
            "notify_p99": self.notify_p99,
        }


@dataclass
class StreamRun:
    """Outcome of one :func:`run_stream` scenario."""

    nsteps: int
    wall_seconds: float
    published: int
    #: latency of the earliest watermark delivery in the run
    first_notify_latency: float
    #: slow group's credit budget expressed in steps
    budget_steps: int
    groups: dict[str, GroupReport]
    violations: list[str]
    #: analysis histogram counts merged across members
    analysis_counts: np.ndarray = field(repr=False)
    #: per-step occupancy merged across members: step -> popcount
    analysis_occupancy: dict[int, int] = field(repr=False)
    #: the follower's (step, cell, value) trajectory
    follower_trajectory: list = field(repr=False)
    #: chronological delivery event log (not serialised)
    events: list = field(repr=False)

    def digest(self) -> str:
        """Deterministic fingerprint of the run's observable behaviour."""
        h = hashlib.sha256()
        h.update(repr(self.events).encode())
        h.update(self.analysis_counts.tobytes())
        h.update(repr(sorted(self.analysis_occupancy.items())).encode())
        h.update(repr(self.follower_trajectory).encode())
        h.update(repr(round(self.wall_seconds, 9)).encode())
        return h.hexdigest()

    def to_dict(self) -> dict:
        """JSON-serialisable form, digest included."""
        return {
            "nsteps": self.nsteps,
            "wall_seconds": self.wall_seconds,
            "published": self.published,
            "first_notify_latency": self.first_notify_latency,
            "budget_steps": self.budget_steps,
            "groups": {k: g.to_dict() for k, g in self.groups.items()},
            "violations": list(self.violations),
            "digest": self.digest(),
        }


def _quantile(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, int(np.ceil(q * len(ordered)))))
    return float(ordered[rank - 1])


def _report(group: ConsumerGroup, checker: StreamChecker) -> GroupReport:
    sub = group.sub
    latencies = [v for st in sub.stats for v in st.notify_latencies]
    entitled = sum(
        len(checker.entitled.get((sub.id, m), [])) for m in range(sub.nmembers)
    )
    return GroupReport(
        name=group.name,
        members=group.nmembers,
        subscribed_at=group.started_at,
        first_step=sub.feed[0].step if sub.feed else None,
        entitled=entitled,
        sent=group.sent,
        delivered=group.delivered,
        deduped=group.deduped,
        consumed=group.consumed,
        max_lag=group.max_lag,
        bytes_fetched=group.bytes_fetched,
        throughput=group.throughput(),
        notify_p50=_quantile(latencies, 0.50),
        notify_p99=_quantile(latencies, 0.99),
    )


def run_stream(
    *,
    seed: int = 11,
    nsteps: int = 8,
    grid: int = 48,
    producers: int = 4,
    step_period: float = 0.5,
    credit_steps: int = 2,
    obs=None,
) -> StreamRun:
    """Run the coupled-workflow scenario; returns a :class:`StreamRun`.

    The consumer side is fixed: :data:`ANALYSIS_MEMBERS` in-transit
    analysis members, :data:`SLOW_MEMBERS` slow member taking
    :data:`SLOW_PROCESS_FACTOR` step periods per step, a follower that
    joins :data:`FOLLOWER_JOIN_FRAC` of the way through, and lost acks
    redelivered with probability :data:`REDELIVER_RATE`.
    """
    if nsteps < 2 or producers < 1 or grid % producers != 0:
        raise ValueError("need nsteps >= 2 and grid divisible by producers")
    eng = Engine()
    if obs is not None:
        eng.obs = obs
    nconsumers = ANALYSIS_MEMBERS + SLOW_MEMBERS + 1
    machine = Machine(
        eng, producers + nconsumers, 2, spec=TESTING_TINY, fs_interference=False
    )
    ds = DataSpaces(eng, machine, list(machine.staging_node_ids))
    ds.declare("field", (grid, grid))
    checker = StreamChecker()
    cfg = StreamConfig(redeliver_rate=REDELIVER_RATE, seed=seed)
    stream = StepStream(eng, machine, ds, cfg, checker=checker)
    domain = Region((0, 0), (grid, grid))
    fields = [make_field(s, grid, seed) for s in range(nsteps)]

    # node layout: producers first, then consumer apps
    analysis_nodes = [producers + i for i in range(ANALYSIS_MEMBERS)]
    slow_nodes = [producers + ANALYSIS_MEMBERS + i for i in range(SLOW_MEMBERS)]
    follower_node = producers + ANALYSIS_MEMBERS + SLOW_MEMBERS

    # the slow group's budget: credit_steps steps' worth of its largest
    # member partition — the knob the lag bound is measured against
    idx = ds.index("field")
    slow_charge = max(
        member_charge_bytes(idx, domain, SLOW_MEMBERS, m)
        for m in range(SLOW_MEMBERS)
    )
    slow_budget = credit_steps * slow_charge

    analysis = ConsumerGroup(
        eng, stream, "field", domain, analysis_nodes,
        reader_factory=lambda m: InTransitAnalysisReader(ANALYSIS_EDGES),
        catchup="none", name="analysis",
    )
    slow = ConsumerGroup(
        eng, stream, "field", domain, slow_nodes,
        process_seconds=SLOW_PROCESS_FACTOR * step_period,
        credit_bytes=slow_budget, catchup="none", name="slow",
    )
    follower = ConsumerGroup(
        eng, stream, "field", domain, [follower_node],
        reader_factory=lambda m: ParticleTrackingFollower(),
        catchup="latest", name="follower",
    )
    analysis.start()
    slow.start()

    rows = grid // producers
    done_counts = [0] * nsteps

    def producer(rank: int):
        region = Region((rank * rows, 0), ((rank + 1) * rows, grid))
        for s in range(nsteps):
            yield eng.timeout(step_period)  # compute phase
            block = fields[s][region.slice_within(domain)]
            yield from ds.put(rank, "field", region, block)
            done_counts[s] += 1
            if done_counts[s] == producers:
                stream.publish("field", s)
                if s == nsteps - 1:
                    stream.close()

    def late_joiner():
        yield eng.timeout(FOLLOWER_JOIN_FRAC * nsteps * step_period)
        follower.start()

    for r in range(producers):
        eng.process(producer(r), name=f"stream-produce-{r}")
    eng.process(late_joiner(), name="stream-follower-join")
    eng.run()

    groups = {
        g.name: _report(g, checker) for g in (analysis, slow, follower)
    }
    counts = np.zeros(ANALYSIS_EDGES.size - 1, dtype=np.int64)
    occupancy: dict[int, int] = {}
    for reader in analysis.readers:
        counts += reader.counts
        for s, pop in zip(reader.steps, reader.occupancy):
            occupancy[s] = occupancy.get(s, 0) + pop
    first_latencies = [
        st.notify_latencies[0]
        for g in (analysis, slow, follower)
        for st in g.sub.stats
        if st.notify_latencies
    ]
    return StreamRun(
        nsteps=nsteps,
        wall_seconds=eng.now,
        published=stream.published,
        first_notify_latency=min(first_latencies) if first_latencies else 0.0,
        budget_steps=credit_steps,
        groups=groups,
        violations=checker.violations(),
        analysis_counts=counts,
        analysis_occupancy=occupancy,
        follower_trajectory=list(follower.readers[0].trajectory),
        events=list(stream.manager.events),
    )
