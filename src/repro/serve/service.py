"""The query-serving service: cache, admission, scatter/gather.

:class:`QueryService` answers point/range/aggregation queries against
the steps the staging pipeline has produced — both *committed* steps
(served from the Hilbert-sharded bitmap indexes) and *in-flight* steps
whose chunks are still landing (served by scanning the landed
partitions, answers marked partial).

The serve path, entered through :meth:`QueryService.submit`:

1. **admission** — every query charges ``QUERY_COST_BYTES`` against a
   :class:`~repro.flow.credits.CreditBank`.  With a CoDel target set,
   a query whose admission wait exceeds the shrinking allowance is not
   dropped but *degraded*: it falls back to a stale-but-bounded read
   of the result cache, and is shed only when no bounded entry exists.
2. **cache** — admitted queries probe the versioned LRU cache
   (:class:`~repro.serve.cache.QueryCache`) at the step's version
   after admission; a fresh hit answers in ``CACHE_HIT_SECONDS``.
3. **scatter/gather** — on a miss against a committed step the query
   routes to the owning shards (:meth:`ShardedStepIndex.owners_for`),
   each shard serialising its work on a FIFO
   :class:`~repro.sim.resources.Resource`, and the partials gather
   back (rows concatenated, aggregates merged).

Versioning makes cache coherence exact: chunk landings and commits
bump the step's build version, commits additionally hard-invalidate
the step's cache entries, and a result computed while the version
moved underneath it is never cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from repro.flow.credits import CreditBank
from repro.serve.cache import QueryCache
from repro.serve.config import CACHE_ENTRIES, CACHE_HIT_SECONDS, QUERY_COST_BYTES, ServeConfig
from repro.serve.shard import ShardedStepIndex, merge_aggregates, partial_aggregate
from repro.sim.engine import Engine, Event, Timeout
from repro.sim.resources import Resource

__all__ = ["Answer", "Query", "QueryService"]


@dataclass(frozen=True)
class Query:
    """One client query against ``(var, step)``.

    ``step=None`` targets the newest step of the variable (committed or
    in-flight).  Conditions are stored sorted so that equal queries
    share one cache shape.
    """

    var: str
    kind: str  # "range" | "point" | "agg"
    conditions: tuple[tuple[int, float, float], ...]
    step: Optional[int] = None
    agg_col: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("range", "point", "agg"):
            raise ValueError(f"unknown query kind {self.kind!r}")
        if not self.conditions:
            raise ValueError("query needs at least one condition")
        if self.kind == "agg" and self.agg_col is None:
            raise ValueError("aggregation query needs agg_col")

    @classmethod
    def range(cls, var, ranges: dict, step: Optional[int] = None) -> "Query":
        conds = tuple(sorted((c, float(lo), float(hi)) for c, (lo, hi) in ranges.items()))
        return cls(var=var, kind="range", conditions=conds, step=step)

    @classmethod
    def point(cls, var, col: int, value: float) -> "Query":
        v = float(value)
        return cls(var=var, kind="point", conditions=((col, v, v),))

    @classmethod
    def aggregate(
        cls, var, ranges: dict, agg_col: int, step: Optional[int] = None
    ) -> "Query":
        conds = tuple(sorted((c, float(lo), float(hi)) for c, (lo, hi) in ranges.items()))
        return cls(var=var, kind="agg", conditions=conds, step=step, agg_col=agg_col)

    def shape(self) -> tuple:
        """Cache-key component identifying the query's work, not its target."""
        return (self.kind, self.conditions, self.agg_col)

    def ranges(self) -> dict:
        """Conditions as the ``{col: (lo, hi)}`` mapping engines expect."""
        return {col: (lo, hi) for col, lo, hi in self.conditions}


@dataclass
class _Result:
    """Cached payload of an executed query."""

    rows: Optional[np.ndarray]
    aggregate: Optional[dict]
    partial: bool
    shards: int


@dataclass
class Answer:
    """What the client gets back."""

    query: Query
    source: str  # "fresh" | "cache" | "stale" | "shed" | "no_data"
    latency: float
    step: Optional[int] = None
    rows: Optional[np.ndarray] = None
    aggregate: Optional[dict] = None
    partial: bool = False
    shards: int = 0

    @property
    def served(self) -> bool:
        return self.source in ("fresh", "cache", "stale")


@dataclass
class _StepState:
    """One ``(var, step)`` the service knows about."""

    var: str
    step: int
    committed: bool = False
    #: build version — bumped by every chunk landing and by commit
    version: int = 0
    partitions: list[np.ndarray] = field(default_factory=list)
    index: Optional[ShardedStepIndex] = None


class QueryService:
    """Serve queries against committed and in-flight steps."""

    def __init__(
        self,
        env: Engine,
        config: Optional[ServeConfig] = None,
        *,
        bins: int = 64,
    ):
        self.env = env
        self.config = config or ServeConfig()
        self.bins = bins
        self.cache = QueryCache(CACHE_ENTRIES)
        self.bank = CreditBank(
            env, rank=0,
            capacity=self.config.credit_bytes,
            config=self.config.flow_config(),
        )
        self._shards = [Resource(env, 1) for _ in range(self.config.nshards)]
        self._steps: dict[tuple[str, int], _StepState] = {}
        #: per variable, the newest step with at least one landed chunk
        self._newest: dict[str, _StepState] = {}
        # -- always-on stats --------------------------------------------
        self.served = 0
        self.degraded = 0
        self.stale_served = 0
        self.shed = 0
        self.partial_served = 0
        #: completion latency (sim seconds) of every served query
        self.latencies: list[float] = []

    # -- data plane: steps arriving from the pipeline -----------------------
    def begin_step(self, var: str, step: int) -> None:
        """Announce an in-flight step whose chunks will land."""
        key = (var, step)
        if key not in self._steps:
            self._steps[key] = _StepState(var=var, step=step)

    def _landed(self, state: _StepState, partition) -> None:
        """Add one chunk to *state*; keep "latest" pointing at the newest
        step with data — an announced step whose first chunk has not
        landed must not hide older steps."""
        state.partitions.append(np.atleast_2d(np.asarray(partition)))
        newest = self._newest.get(state.var)
        if newest is None or state.step > newest.step:
            self._newest[state.var] = state

    def land_chunk(self, var: str, step: int, partition: np.ndarray) -> None:
        """A chunk of an in-flight step arrived on the staging area."""
        self.begin_step(var, step)
        state = self._steps[(var, step)]
        if state.committed:
            raise ValueError(f"step {step} of {var!r} is already committed")
        self._landed(state, partition)
        state.version += 1
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("serve_chunks_landed")

    def commit_step(self, var: str, step: int, partitions=None) -> None:
        """Seal a step: build the sharded index, hard-invalidate cache.

        *partitions* may deliver the full data in one call for steps
        never announced in-flight.
        """
        self.begin_step(var, step)
        state = self._steps[(var, step)]
        if state.committed:
            return
        if partitions is not None:
            for p in partitions:
                self._landed(state, p)
        if not any(len(p) for p in state.partitions):
            raise ValueError(f"committing empty step {step} of {var!r}")
        state.index = ShardedStepIndex(
            state.partitions,
            (0,),  # column 0 is the routing column and the only index
            nshards=self.config.nshards,
            bins=self.bins,
        )
        state.committed = True
        state.version += 1
        # partial in-flight answers must not outlive the commit, not
        # even as stale-bounded degraded reads
        self.cache.invalidate(var, step)
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("serve_steps_committed")

    # -- serve path ---------------------------------------------------------
    def submit(self, client, qid, query: Query) -> Event:
        """Serve *query* for *client*; the returned event's value is the Answer.

        The zero-time prefix runs inline: resolve the step, admit, probe
        the fresh cache.  A granted fresh hit is one timeout (see
        :meth:`_probe`); only a query that must wait for credits or
        misses the cache becomes a process.
        """
        t0 = self.env.now
        state = self._resolve(query)
        if state is None or not state.partitions:
            answer = self._finish(Answer(query=query, source="no_data", latency=0.0), t0)
            return self.env.event().succeed(answer)
        key = self.cache.key(query.var, state.step, query.shape())
        token = (client, qid)
        if not self.bank.admit(token, QUERY_COST_BYTES):
            return self.env.process(self._queued(state, key, token, query, t0))
        hit = self._probe(state, key, token, query, t0)
        if hit is not None:
            return hit
        return self.env.process(self._miss(state, key, token, query, t0))

    def _probe(self, state, key, token, query: Query, t0: float) -> Optional[Timeout]:
        """Fresh-cache probe of an admitted query, at the current version.

        The current version, not the one at arrival: a chunk that landed
        while the query waited for credits has superseded the entries
        stamped before it.  A hit returns its one ``CACHE_HIT_SECONDS``
        timeout, valued with the answer, whose first callback finishes
        the answer and releases the credits.  A miss returns None with
        the credits still held.
        """
        cached = self.cache.get(key, state.version)
        if cached is None:
            self._obs_inc("serve_cache_misses")
            return None
        self._obs_inc("serve_cache_hits")
        answer = self._answer(query, state.step, cached, "cache")
        hit = self.env.timeout(CACHE_HIT_SECONDS, answer)
        hit.callbacks.append(partial(self._hit_done, answer, token, t0))
        return hit

    def _hit_done(self, answer: Answer, token, t0: float, _hit: Timeout) -> None:
        self._finish(answer, t0)
        self.bank.release(token)

    def _miss(self, state, key, token, query: Query, t0: float):
        """Process body of an admitted miss: execute, fill, release."""
        version = state.version
        try:
            result = yield from self._execute(state, query)
            # cache only when the step did not change underneath the
            # execution: a result computed against partial data that a
            # landing or commit has since superseded must not be stored
            if state.version == version:
                self.cache.put(key, result, version)
            return self._finish(
                self._answer(query, state.step, result, "fresh"), t0
            )
        finally:
            self.bank.release(token)

    def _queued(self, state, key, token, query: Query, t0: float):
        """Process body of a refused admission: wait, then probe or degrade."""
        granted = yield from self.bank.wait(
            token, QUERY_COST_BYTES,
            can_degrade=self.config.codel_target is not None,
        )
        if not granted:
            # degraded: a bounded-staleness cache read or nothing
            self.degraded += 1
            self._obs_inc("serve_degraded")
            cached = self.cache.get(
                key, state.version,
                allow_stale=True, stale_bound=self.config.stale_bound,
            )
            if cached is None:
                self.shed += 1
                self._obs_inc("serve_shed")
                return self._finish(
                    Answer(query=query, source="shed", latency=0.0, step=state.step),
                    t0,
                )
            yield self.env.timeout(CACHE_HIT_SECONDS)
            self.stale_served += 1
            return self._finish(
                self._answer(query, state.step, cached, "stale"), t0
            )
        hit = self._probe(state, key, token, query, t0)
        if hit is None:
            return (yield from self._miss(state, key, token, query, t0))
        return (yield hit)

    # -- execution ----------------------------------------------------------
    def _resolve(self, query: Query) -> Optional[_StepState]:
        if query.step is not None:
            return self._steps.get((query.var, query.step))
        return self._newest.get(query.var)

    def _execute(self, state: _StepState, query: Query):
        ranges = query.ranges()
        if state.committed:
            index = state.index
            owners = index.owners_for(ranges)
            yield self.env.timeout(self.config.route_seconds)  # scatter
            reports: dict[int, object] = {}
            if owners:
                procs = [
                    self.env.process(
                        self._shard_exec(shard, index.engines[shard], ranges, reports)
                    )
                    for shard in owners
                ]
                yield self.env.all_of(procs)
            yield self.env.timeout(self.config.route_seconds)  # gather
            if query.kind == "agg":
                # each shard ships only its aggregation partial; the
                # gatherer merges them without moving rows
                agg = merge_aggregates(
                    [partial_aggregate(reports[s].rows, query.agg_col) for s in owners]
                    or [partial_aggregate(self._empty_rows(state), query.agg_col)]
                )
                return _Result(
                    rows=None, aggregate=agg, partial=False, shards=len(owners)
                )
            row_blocks = [reports[s].rows for s in owners]
            rows = (
                np.concatenate(row_blocks)
                if row_blocks
                else self._empty_rows(state)
            )
            return self._package(query, rows, partial=False, shards=len(owners))
        # in-flight: no index yet — scan the landed partitions at the
        # coordinator and mark the answer partial
        yield self.env.timeout(self.config.route_seconds)
        rows, nchecked = self._scan(state.partitions, ranges, state)
        service = (
            self.config.shard_overhead_seconds
            + nchecked * self.config.row_check_seconds
            + rows.shape[0] * self.config.row_emit_seconds
        )
        yield self.env.timeout(service)
        self._obs_inc("serve_inflight_scans")
        return self._package(query, rows, partial=True, shards=0)

    def _shard_exec(self, shard: int, engine, ranges: dict, reports: dict):
        """One shard's sub-query: FIFO on the shard, then indexed work."""
        lock = self._shards[shard]
        req = lock.request()
        yield req
        try:
            report = engine.query(ranges)
            service = (
                self.config.shard_overhead_seconds
                + report.rows_checked * self.config.row_check_seconds
                + report.rows.shape[0] * self.config.row_emit_seconds
            )
            yield self.env.timeout(service)
        finally:
            lock.release()
        reports[shard] = report
        obs = self.env.obs
        if obs is not None:
            obs.metrics.observe("serve_shard_seconds", service, shard=shard)
            obs.metrics.inc("serve_shard_queries", shard=shard)

    def _scan(self, partitions, ranges: dict, state: _StepState):
        """Brute scan of landed partitions; returns (rows, rows_checked)."""
        out = []
        checked = 0
        for part in partitions:
            if not len(part):
                continue
            checked += part.shape[0]
            mask = np.ones(part.shape[0], dtype=bool)
            for col, (lo, hi) in ranges.items():
                mask &= (part[:, col] >= lo) & (part[:, col] <= hi)
            out.append(part[mask])
        rows = np.concatenate(out) if out else self._empty_rows(state)
        return rows, checked

    def _empty_rows(self, state: _StepState) -> np.ndarray:
        ref = state.partitions[0]
        return np.empty((0, ref.shape[1]), dtype=ref.dtype)

    def _package(
        self, query: Query, rows: np.ndarray, *, partial: bool, shards: int
    ) -> _Result:
        if query.kind == "agg":
            agg = merge_aggregates([partial_aggregate(rows, query.agg_col)])
            return _Result(rows=None, aggregate=agg, partial=partial, shards=shards)
        return _Result(rows=rows, aggregate=None, partial=partial, shards=shards)

    def _answer(self, query: Query, step: int, result: _Result, source: str) -> Answer:
        return Answer(
            query=query,
            source=source,
            latency=0.0,
            step=step,
            rows=result.rows,
            aggregate=result.aggregate,
            partial=result.partial,
            shards=result.shards,
        )

    def _finish(self, answer: Answer, t0: float) -> Answer:
        answer.latency = self.env.now - t0
        if answer.served:
            self.served += 1
            if answer.partial:
                self.partial_served += 1
            self.latencies.append(answer.latency)
        obs = self.env.obs
        if obs is not None:
            obs.metrics.observe(
                "serve_latency_seconds", answer.latency, source=answer.source
            )
        return answer

    def _obs_inc(self, name: str) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc(name)

    # -- introspection ------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        return self.cache.stats.hit_rate
