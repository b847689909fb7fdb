"""Seeded open-loop client workload against the query service.

The driver models *offered load*: client queries arrive by a Poisson
process at a configured rate regardless of how fast the service
answers (open loop — the hallmark of latency benchmarking, since a
closed loop self-throttles exactly when the service degrades).  Query
arrival times, the query pool, and the popularity skew all come from
one seeded :class:`random.Random`, and latencies are simulated time,
so every load point is exactly reproducible.

A background producer keeps the data plane moving mid-run: it lands
chunks of a new step while clients query (exercising the in-flight
path) and commits the step partway through (exercising hard cache
invalidation under traffic).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.obs.metrics import quantile
from repro.serve.config import ServeConfig
from repro.serve.service import Query, QueryService
from repro.sim.engine import Engine

__all__ = ["LoadPoint", "WorkloadDriver"]


@dataclass
class LoadPoint:
    """Outcome of one offered-load level."""

    offered_qps: float
    duration: float
    issued: int
    completed: int
    degraded: int
    stale_served: int
    shed: int
    partial_answers: int
    p50: float
    p99: float
    mean: float
    hit_rate: float
    cache_hits: int
    cache_misses: int
    #: raw per-query completion latencies (not serialised)
    latencies: list[float] = field(default_factory=list, repr=False)

    def slo_fraction(self, slo_seconds: float) -> float:
        """Share of served queries completing within *slo_seconds*."""
        if not self.latencies:
            return 0.0
        return sum(1 for v in self.latencies if v <= slo_seconds) / len(self.latencies)

    def to_dict(self) -> dict:
        """JSON-ready summary (raw latencies excluded)."""
        return {
            "offered_qps": self.offered_qps,
            "duration": self.duration,
            "issued": self.issued,
            "completed": self.completed,
            "degraded": self.degraded,
            "stale_served": self.stale_served,
            "shed": self.shed,
            "partial_answers": self.partial_answers,
            "p50": self.p50,
            "p99": self.p99,
            "mean": self.mean,
            "hit_rate": self.hit_rate,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


#: the served variable and its dataset: partitions per step, rows and
#: columns per partition, bins per bitmap index
VAR = "rho"
NPARTS = 8
ROWS_PER_PART = 512
NCOLS = 4
BINS = 32
#: the traffic: client ids, query-pool size, the share of the pool that
#: is "popular" and the chance a query draws from that hot set
NCLIENTS = 8
POOL_SIZE = 48
HOT_FRACTION = 0.25
HOT_PROBABILITY = 0.8


@dataclass
class WorkloadDriver:
    """Open-loop query traffic generator.

    Each :meth:`run` builds a fresh engine, service, and dataset, so
    load points are independent and order-insensitive.
    """

    seed: int = 20260808
    config: ServeConfig = field(default_factory=ServeConfig)

    # -- dataset ------------------------------------------------------------
    def make_partitions(self, step: int) -> list[np.ndarray]:
        """Deterministic per-step particle partitions."""
        rng = np.random.default_rng(self.seed + 7919 * step)
        parts = []
        for i in range(NPARTS):
            # give each partition a distinct key neighbourhood on the
            # routing column so Hilbert sharding actually spreads them
            centre = (i + 0.5) / NPARTS * 100.0
            block = rng.normal(loc=centre, scale=4.0, size=(ROWS_PER_PART, NCOLS))
            parts.append(block)
        return parts

    def make_pool(self, rng: random.Random) -> list[Query]:
        """The query pool clients draw from (range/point/agg mix)."""
        pool: list[Query] = []
        for i in range(POOL_SIZE):
            lo = rng.uniform(0.0, 90.0)
            hi = lo + rng.uniform(2.0, 25.0)
            kind = i % 3
            if kind == 0:
                pool.append(Query.range(VAR, {0: (lo, hi)}))
            elif kind == 1:
                # point probe plus a secondary range condition
                pool.append(
                    Query.range(
                        VAR,
                        {0: (lo, hi), 1: (rng.uniform(0, 50), 100.0)},
                    )
                )
            else:
                pool.append(
                    Query.aggregate(VAR, {0: (lo, hi)}, agg_col=NCOLS - 1)
                )
        return pool

    def _draw(self, rng: random.Random, pool: list[Query]) -> Query:
        hot = max(1, int(len(pool) * HOT_FRACTION))
        if rng.random() < HOT_PROBABILITY:
            return pool[rng.randrange(hot)]
        return pool[rng.randrange(len(pool))]

    # -- one load point -----------------------------------------------------
    def run(self, offered_qps: float, duration: float = 2.0) -> LoadPoint:
        """Drive *offered_qps* for *duration* sim seconds, then drain."""
        if offered_qps <= 0 or duration <= 0:
            raise ValueError("offered_qps and duration must be positive")
        rng = random.Random(self.seed * 1_000_003 + int(round(offered_qps * 1000)))
        env = Engine()
        service = QueryService(env, self.config, bins=BINS)
        service.commit_step(VAR, 0, partitions=self.make_partitions(0))
        pool = self.make_pool(rng)
        issued = [0]

        def arrivals():
            while env.now < duration:
                yield env.timeout(rng.expovariate(offered_qps))
                if env.now >= duration:
                    break
                query = self._draw(rng, pool)
                client = issued[0] % NCLIENTS
                service.submit(client, issued[0], query)
                issued[0] += 1

        def producer():
            # land step-1 chunks across the first 60% of the run, then
            # commit — queries in between exercise the in-flight path
            # and the commit exercises hard invalidation under traffic
            step1 = self.make_partitions(1)
            service.begin_step(VAR, 1)
            gap = duration * 0.6 / max(1, len(step1))
            for part in step1:
                yield env.timeout(gap)
                service.land_chunk(VAR, 1, part)
            service.commit_step(VAR, 1)

        env.process(arrivals())
        env.process(producer())
        env.run()  # drain: arrivals stop at `duration`, queries finish

        stats = service.cache.stats
        return LoadPoint(
            offered_qps=offered_qps,
            duration=duration,
            issued=issued[0],
            completed=service.served,
            degraded=service.degraded,
            stale_served=service.stale_served,
            shed=service.shed,
            partial_answers=service.partial_served,
            p50=quantile(service.latencies, 0.50),
            p99=quantile(service.latencies, 0.99),
            mean=(
                sum(service.latencies) / len(service.latencies)
                if service.latencies
                else 0.0
            ),
            hit_rate=stats.hit_rate,
            cache_hits=stats.hits,
            cache_misses=stats.misses,
            latencies=list(service.latencies),
        )

    def sweep(self, loads: Sequence[float], duration: float = 2.0) -> list[LoadPoint]:
        """One independent :meth:`run` per offered load, in order."""
        return [self.run(qps, duration) for qps in loads]
