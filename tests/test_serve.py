"""Query-serving subsystem: cache coherence, sharding, admission.

The load-bearing guarantees under test:

- the versioned cache never serves a result across a step commit, not
  even on the degraded (stale-but-bounded) path;
- Hilbert-sharded scatter/gather answers are exactly what a monolithic
  engine's brute force produces;
- admission pressure walks the documented ladder (fresh -> degraded
  stale read -> shed) and nothing else;
- the whole workload driver is deterministic under a fixed seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import Observability
from repro.query.range_query import RangeQueryEngine
from repro.serve import (
    Query,
    QueryCache,
    QueryService,
    ServeConfig,
    ShardedStepIndex,
    WorkloadDriver,
    merge_aggregates,
    partial_aggregate,
)
from repro.obs.metrics import quantile
from repro.serve.bench import BENCH_CONFIG, bench_query
from repro.serve.config import QUERY_COST_BYTES
from repro.sim.engine import Engine


def make_partitions(nparts=6, rows=64, ncols=3, seed=5, dtype=None):
    rng = np.random.default_rng(seed)
    parts = []
    for i in range(nparts):
        block = rng.normal(loc=(i + 0.5) * 10.0, scale=3.0, size=(rows, ncols))
        parts.append(block.astype(dtype) if dtype is not None else block)
    return parts


def serve_one(env, service, query, *, client="c0", qid=0, delay=0.0):
    """Run one serve process to completion; returns its Answer."""
    out = {}

    def proc():
        if delay:
            yield env.timeout(delay)
        out["answer"] = yield service.submit(client, qid, query)

    env.process(proc())
    env.run()
    return out["answer"]


def sorted_rows(rows):
    rows = np.atleast_2d(rows)
    if rows.shape[0] == 0:
        return rows
    return rows[np.lexsort(rows.T[::-1])]


# ------------------------------------------------------------------ cache
def test_cache_lru_evicts_oldest():
    cache = QueryCache(capacity=2)
    for i in range(3):
        cache.put(("v", 0, i), i, version=1)
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.get(("v", 0, 0), 1) is None  # evicted
    assert cache.get(("v", 0, 2), 1) == 2


def test_cache_fresh_hit_requires_exact_version():
    cache = QueryCache(capacity=8)
    cache.put(("v", 0, "q"), "old", version=1)
    assert cache.get(("v", 0, "q"), 1) == "old"
    assert cache.get(("v", 0, "q"), 2) is None  # version moved on
    # the superseded entry was dropped outright
    assert cache.get(("v", 0, "q"), 1) is None


def test_cache_stale_read_is_bounded():
    cache = QueryCache(capacity=8)
    cache.put(("v", 0, "q"), "old", version=3)
    assert cache.get(("v", 0, "q"), 4, allow_stale=True, stale_bound=1) == "old"
    assert cache.stats.stale_hits == 1
    cache.put(("v", 0, "r"), "older", version=3)
    assert cache.get(("v", 0, "r"), 5, allow_stale=True, stale_bound=1) is None


def test_cache_invalidate_removes_only_that_step():
    cache = QueryCache(capacity=8)
    cache.put(("v", 0, "a"), 1, version=1)
    cache.put(("v", 0, "b"), 2, version=1)
    cache.put(("v", 1, "a"), 3, version=1)
    cache.put(("w", 0, "a"), 4, version=1)
    assert cache.invalidate("v", 0) == 2
    assert cache.get(("v", 0, "a"), 1, allow_stale=True, stale_bound=99) is None
    assert cache.get(("v", 1, "a"), 1) == 3
    assert cache.get(("w", 0, "a"), 1) == 4


# --------------------------------------------------------------- sharding
def test_sharded_index_covers_every_partition():
    parts = make_partitions()
    index = ShardedStepIndex(parts, (0,), nshards=4)
    assert sum(len(s) for s in index.assignment) == len(parts)
    assert index.total_rows == sum(p.shape[0] for p in parts)
    assert 1 <= index.populated_shards <= 4


def test_sharded_index_assignment_is_deterministic():
    parts = make_partitions()
    a = ShardedStepIndex(parts, (0,), nshards=4)
    b = ShardedStepIndex(parts, (0,), nshards=4)
    assert [[id(p) for p in s] for s in a.assignment] != []
    assert [
        [p.shape for p in s] for s in a.assignment
    ] == [[p.shape for p in s] for s in b.assignment]
    assert a.bounds == b.bounds


def test_sharded_scatter_gather_matches_monolithic_brute_force():
    parts = make_partitions()
    index = ShardedStepIndex(parts, (0,), nshards=4)
    mono = RangeQueryEngine(parts, (0,), edges=index.edges)
    ranges = {0: (12.0, 41.0), 1: (5.0, 60.0)}
    owners = index.owners_for(ranges)
    assert owners, "query interval should hit at least one shard"
    gathered = np.concatenate(
        [index.engines[s].query(ranges).rows for s in owners]
    )
    np.testing.assert_array_equal(
        sorted_rows(gathered), sorted_rows(mono.brute_force(ranges))
    )


def test_owner_pruning_never_drops_matches():
    parts = make_partitions(nparts=8)
    index = ShardedStepIndex(parts, (0,), nshards=4)
    ranges = {0: (0.0, 14.0)}  # only the low-key shards
    owners = index.owners_for(ranges)
    assert len(owners) < index.populated_shards
    mono = RangeQueryEngine(parts, (0,), edges=index.edges)
    gathered = np.concatenate(
        [index.engines[s].query(ranges).rows for s in owners]
    )
    np.testing.assert_array_equal(
        sorted_rows(gathered), sorted_rows(mono.brute_force(ranges))
    )


def test_aggregate_merge_matches_numpy():
    parts = make_partitions()
    concat = np.concatenate(parts)
    partials = [partial_aggregate(p, 2) for p in parts]
    merged = merge_aggregates(partials)
    assert merged["count"] == concat.shape[0]
    assert merged["sum"] == pytest.approx(concat[:, 2].sum())
    assert merged["min"] == pytest.approx(concat[:, 2].min())
    assert merged["max"] == pytest.approx(concat[:, 2].max())
    assert merged["mean"] == pytest.approx(concat[:, 2].mean())
    assert merge_aggregates([partial_aggregate(concat[:0], 2)])["min"] is None


# ---------------------------------------------------------------- service
def test_range_query_through_service_matches_brute_force():
    env = Engine()
    service = QueryService(env)
    parts = make_partitions()
    service.commit_step("rho", 0, partitions=parts)
    query = Query.range("rho", {0: (12.0, 41.0), 1: (5.0, 60.0)})
    answer = serve_one(env, service, query)
    assert answer.source == "fresh"
    assert not answer.partial
    assert answer.shards >= 1
    mono = RangeQueryEngine(parts, (0,))
    np.testing.assert_array_equal(
        sorted_rows(answer.rows), sorted_rows(mono.brute_force(query.ranges()))
    )
    assert answer.latency > 0.0


def test_point_and_aggregation_queries():
    env = Engine()
    service = QueryService(env)
    parts = make_partitions()
    target = float(parts[2][7, 0])
    service.commit_step("rho", 0, partitions=parts)
    point = serve_one(env, service, Query.range("rho", {0: (target, target)}), qid=1)
    assert point.rows.shape[0] >= 1
    assert np.all(point.rows[:, 0] == target)
    agg = serve_one(
        env, service, Query.aggregate("rho", {0: (10.0, 50.0)}, agg_col=2), qid=2
    )
    assert agg.rows is None
    concat = np.concatenate(parts)
    mask = (concat[:, 0] >= 10.0) & (concat[:, 0] <= 50.0)
    assert agg.aggregate["count"] == int(mask.sum())
    assert agg.aggregate["sum"] == pytest.approx(concat[mask, 2].sum())
    assert agg.aggregate["mean"] == pytest.approx(concat[mask, 2].mean())


def test_repeat_query_hits_cache_and_is_faster():
    env = Engine()
    service = QueryService(env)
    service.commit_step("rho", 0, partitions=make_partitions())
    query = Query.range("rho", {0: (12.0, 41.0)})
    first = serve_one(env, service, query, qid=1)
    second = serve_one(env, service, query, qid=2)
    assert (first.source, second.source) == ("fresh", "cache")
    np.testing.assert_array_equal(first.rows, second.rows)
    assert second.latency < first.latency
    assert service.hit_rate > 0.0


def test_unknown_variable_returns_no_data():
    env = Engine()
    service = QueryService(env)
    answer = serve_one(env, service, Query.range("nope", {0: (0.0, 1.0)}))
    assert answer.source == "no_data"
    assert not answer.served


def test_empty_result_keeps_partition_dtype():
    env = Engine()
    service = QueryService(env)
    parts = [(p * 100).astype(np.int64) for p in make_partitions()]
    service.commit_step("rho", 0, partitions=parts)
    answer = serve_one(env, service, Query.range("rho", {0: (1e8, 2e8)}))
    assert answer.rows.shape == (0, parts[0].shape[1])
    assert answer.rows.dtype == np.int64


# ------------------------------------------------- in-flight + invalidation
def test_inflight_step_serves_partial_then_commit_serves_full():
    env = Engine()
    service = QueryService(env)
    parts = make_partitions(nparts=4)
    service.begin_step("rho", 0)
    for p in parts[:2]:
        service.land_chunk("rho", 0, p)
    query = Query.range("rho", {0: (-1e3, 1e3)})
    early = serve_one(env, service, query, qid=1)
    assert early.partial
    assert early.rows.shape[0] == sum(p.shape[0] for p in parts[:2])
    service.commit_step("rho", 0, partitions=parts[2:])
    late = serve_one(env, service, query, qid=2)
    assert late.source == "fresh"  # the partial entry must not be reused
    assert not late.partial
    assert late.rows.shape[0] == sum(p.shape[0] for p in parts)
    assert service.cache.stats.invalidations >= 1


def test_chunk_landing_invalidates_fresh_reads():
    env = Engine()
    service = QueryService(env)
    parts = make_partitions(nparts=3)
    service.begin_step("rho", 0)
    service.land_chunk("rho", 0, parts[0])
    query = Query.range("rho", {0: (-1e3, 1e3)})
    first = serve_one(env, service, query, qid=1)
    service.land_chunk("rho", 0, parts[1])
    second = serve_one(env, service, query, qid=2)
    assert (first.source, second.source) == ("fresh", "fresh")
    assert second.rows.shape[0] > first.rows.shape[0]


def test_result_not_cached_when_version_moves_during_execution():
    env = Engine()
    service = QueryService(env)
    parts = make_partitions(nparts=3)
    service.begin_step("rho", 0)
    service.land_chunk("rho", 0, parts[0])
    query = Query.range("rho", {0: (-1e3, 1e3)})

    def lander():
        # lands after qid=1's scan snapshotted the partitions (the
        # route hop takes 2e-4) but before its service time elapses
        yield env.timeout(3e-4)
        service.land_chunk("rho", 0, parts[1])

    env.process(lander())
    first = serve_one(env, service, query, qid=1)
    assert first.source == "fresh"
    second = serve_one(env, service, query, qid=2)
    # had qid=1's partial answer been cached it would now be served
    # either fresh (wrong version) or stale; it must be recomputed
    assert second.source == "fresh"
    assert second.rows.shape[0] > first.rows.shape[0]


# ------------------------------------------------------ admission pressure
PRESSURE = ServeConfig(
    credit_bytes=64e3,  # exactly one query's worth of credits
    codel_target=1e-4,
    shard_overhead_seconds=0.05,  # make executions hold credits a while
)


def _pressure_probe(env, service, long_query, probe_query, qid0):
    """Issue a credit-holding query, then probe with a second one from
    the same client so admission must queue it; returns both answers."""
    out = {}

    def holder():
        out["long"] = yield service.submit("c0", qid0, long_query)

    def probe():
        yield env.timeout(1e-5)
        out["probe"] = yield service.submit("c0", qid0 + 1, probe_query)

    env.process(holder())
    env.process(probe())
    env.run()
    return out


def test_degraded_query_serves_bounded_stale_read():
    env = Engine()
    service = QueryService(env, PRESSURE)
    parts = make_partitions(nparts=3)
    service.begin_step("rho", 0)
    service.land_chunk("rho", 0, parts[0])
    service.land_chunk("rho", 0, parts[1])
    query = Query.range("rho", {0: (-1e3, 1e3)})
    cached = serve_one(env, service, query, client="warm", qid=0)
    assert cached.source == "fresh"
    service.land_chunk("rho", 0, parts[2])  # entry now exactly 1 stale
    out = _pressure_probe(
        env, service, Query.range("rho", {0: (5.0, 95.0), 1: (-1e3, 1e3)}), query, qid0=10
    )
    assert out["probe"].source == "stale"
    assert out["probe"].rows.shape[0] == cached.rows.shape[0]
    assert service.degraded == 1
    assert service.stale_served == 1
    assert service.bank.rejections == 1


def test_stale_read_never_served_after_step_commit():
    """THE invalidation guarantee: a commit hard-removes the step's
    cache entries, so even a degraded query cannot observe pre-commit
    (partial) data — it sheds instead."""
    env = Engine()
    service = QueryService(env, PRESSURE)
    parts = make_partitions(nparts=3)
    service.begin_step("rho", 0)
    service.land_chunk("rho", 0, parts[0])
    service.land_chunk("rho", 0, parts[1])
    query = Query.range("rho", {0: (-1e3, 1e3)})
    pre = serve_one(env, service, query, client="warm", qid=0)
    assert pre.partial
    service.commit_step("rho", 0, partitions=parts[2:])
    out = _pressure_probe(
        env, service, Query.range("rho", {0: (5.0, 95.0), 1: (-1e3, 1e3)}), query, qid0=20
    )
    # without the commit this identical probe serves the stale entry
    # (previous test); after it, the entry is gone for good
    assert out["probe"].source == "shed"
    assert out["probe"].rows is None
    assert service.stale_served == 0
    assert service.shed == 1
    # and a fresh (admitted) query sees only the complete committed data
    post = serve_one(env, service, query, client="after", qid=30)
    assert not post.partial
    assert post.rows.shape[0] == sum(p.shape[0] for p in parts)


def test_query_admitted_after_a_landing_does_not_hit_the_superseded_entry():
    """A query that waits for admission while a chunk lands probes the
    cache with the version current at its grant: the entry stamped
    before the landing is one version behind, not a fresh hit."""
    env = Engine()
    service = QueryService(env, ServeConfig(
        credit_bytes=QUERY_COST_BYTES,  # one query's credits: c0 queues
        codel_target=None,  # wait for the grant, never degrade
        shard_overhead_seconds=0.05,
    ))
    parts = make_partitions(nparts=3)
    service.begin_step("rho", 0)
    service.land_chunk("rho", 0, parts[0])
    service.land_chunk("rho", 0, parts[1])
    query = Query.range("rho", {0: (-1e3, 1e3)})
    assert serve_one(env, service, query, client="warm", qid=0).source == "fresh"

    def lander():
        # after the probe queued (1e-5), long before the holder ends
        yield env.timeout(2e-5)
        service.land_chunk("rho", 0, parts[2])

    env.process(lander())
    out = _pressure_probe(
        env, service, Query.range("rho", {0: (5.0, 95.0), 1: (-1e3, 1e3)}), query, qid0=10
    )
    assert service.bank.grants == 3 and service.bank.max_sojourn > 0.0
    assert out["probe"].source == "fresh"
    assert out["probe"].rows.shape[0] == sum(p.shape[0] for p in parts)


# ------------------------------------------------------------ observability
def test_obs_metrics_recorded_behind_guard():
    env = Engine()
    obs = Observability()
    obs.bind(env)
    service = QueryService(env)
    service.commit_step("rho", 0, partitions=make_partitions())
    query = Query.range("rho", {0: (12.0, 41.0)})
    serve_one(env, service, query, qid=1)
    serve_one(env, service, query, qid=2)
    assert obs.metrics.counter("serve_cache_misses") == 1.0
    assert obs.metrics.counter("serve_cache_hits") == 1.0
    assert obs.metrics.counter("serve_steps_committed") == 1.0
    shard_series = obs.metrics.labelled("serve_shard_queries")
    assert shard_series and all(v > 0 for _lbl, v in shard_series)
    busy = obs.metrics.histogram(
        "serve_shard_seconds", shard=shard_series[0][0]["shard"]
    )
    assert busy is not None and busy.quantile(0.5) > 0.0
    hist = obs.metrics.histogram("serve_latency_seconds", source="fresh")
    assert hist is not None and hist.count == 1
    assert hist.quantile(0.5) > 0.0


def test_service_works_with_obs_disabled():
    env = Engine()
    assert env.obs is None
    service = QueryService(env)
    service.commit_step("rho", 0, partitions=make_partitions())
    answer = serve_one(env, service, Query.range("rho", {0: (12.0, 41.0)}))
    assert answer.source == "fresh"


# ---------------------------------------------------------------- workload
def test_workload_driver_is_deterministic():
    a = WorkloadDriver(seed=99).run(300.0, 0.5)
    b = WorkloadDriver(seed=99).run(300.0, 0.5)
    assert a.to_dict() == b.to_dict()
    assert a.latencies == b.latencies
    assert a.issued == a.completed + a.shed


def test_workload_repeats_hit_the_cache():
    point = WorkloadDriver(seed=7).run(400.0, 1.0)
    assert point.hit_rate > 0.0
    assert point.cache_hits > 0
    assert point.partial_answers > 0  # the in-flight window was queried


def test_pressure_ladder_under_offered_load():
    driver = WorkloadDriver(seed=11, config=BENCH_CONFIG)
    point = driver.run(3200.0, 1.0)
    assert point.degraded > 0
    assert point.stale_served > 0
    assert point.shed > 0
    assert point.completed + point.shed == point.issued
    assert point.stale_served <= point.degraded


def test_bench_query_record_shape_and_guards():
    record = bench_query(loads=(50.0, 400.0), duration=0.5)
    assert record["bench"] == "query"
    assert len(record["points"]) == 2
    for tag in ("load50", "load400"):
        assert record["guards"][f"served:{tag}"] > 0.0
        assert record["guards"][f"hit_rate:{tag}"] > 0.0
        assert 0.0 <= record["guards"][f"slo:{tag}"] <= 1.0
    for p in record["points"]:
        assert p["p99"] >= p["p50"] > 0.0


def test_quantile_nearest_rank():
    vals = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert quantile(vals, 0.5) == 3.0
    assert quantile(vals, 0.0) == 1.0
    assert quantile(vals, 1.0) == 5.0
    assert quantile([], 0.5) == 0.0
    with pytest.raises(ValueError):
        quantile(vals, 1.5)


# -------------------------------------------------------------- validation
def test_query_validation():
    with pytest.raises(ValueError):
        Query(var="v", kind="nope", conditions=((0, 0.0, 1.0),))
    with pytest.raises(ValueError):
        Query(var="v", kind="range", conditions=())
    with pytest.raises(ValueError):
        Query.aggregate("v", {}, agg_col=0)
    with pytest.raises(ValueError):
        Query(var="v", kind="agg", conditions=((0, 0.0, 1.0),))


def test_serve_config_validation():
    with pytest.raises(ValueError):
        ServeConfig(codel_target=0.0)
    with pytest.raises(ValueError):
        ServeConfig(shard_overhead_seconds=-1.0)
    assert ServeConfig().flow_config().codel_target is not None


# ------------------------------------------------------- "latest" resolution
def _newest_with_data_by_scan(service, var):
    """Oracle: the rule ``_resolve`` states, by sorting every known step."""
    for step in sorted((s for v, s in service._steps if v == var), reverse=True):
        state = service._steps[(var, step)]
        if state.partitions:
            return state
    return None


@pytest.mark.parametrize("seed", range(8))
def test_latest_step_pointer_agrees_with_a_sorted_scan(seed):
    """Steps announced, filled and sealed out of order, with empty chunks
    and refused calls: after every call ``step=None`` resolves to the
    newest step with a landed chunk, never to an announced-only one."""
    import random

    rng = random.Random(seed)
    service = QueryService(Engine(), bins=8)
    variables = ("rho", "T", "p")
    chunk = np.arange(12.0).reshape(4, 3)
    empty = np.empty((0, 3))
    resolved = set()
    for _ in range(120):
        var, step = rng.choice(variables), rng.randrange(6)
        op = rng.choice(("begin", "land", "land", "land_empty", "commit", "commit_with"))
        try:
            if op == "begin":
                service.begin_step(var, step)
            elif op == "land":
                service.land_chunk(var, step, chunk + step)
            elif op == "land_empty":
                service.land_chunk(var, step, empty)
            elif op == "commit":
                service.commit_step(var, step)
            else:
                parts = rng.choice(([chunk], [empty, chunk], [empty]))
                service.commit_step(var, step, partitions=parts)
        except ValueError:
            pass  # landing on a sealed step, sealing an empty one
        for v in variables:
            got = service._resolve(Query.range(v, {0: (0.0, 1.0)}))
            assert got is _newest_with_data_by_scan(service, v)
            resolved.add(None if got is None else got.committed)
        explicit = service._resolve(Query.range(var, {0: (0.0, 1.0)}, step=step))
        assert explicit is service._steps.get((var, step))
    assert resolved == {None, False, True}
