"""``QueryService.submit`` against the per-query-process serve path.

``reference_serve`` is the serve path as one generator process per
query: resolve, admit or queue for credits, probe the cache at the
version current after admission, then a cache-hit timeout or the
scatter/gather execution, and release.  It is the oracle that
``submit`` must reproduce, the way ``kernels.NAIVE`` serves the
kernels: the workload driver with every query run through it must give
the same ``LoadPoint`` (raw latencies included), the same cache stats,
the same credit-bank books and, with observability bound, the same
``serve_*`` and ``flow_*`` metrics.  Covered: the sweep's pressure
configuration and a wait-heavy one (one query's credits, with and
without a CoDel target), at the lowest and highest sweep loads, on
three seeds.

Beside the oracle sit the count gates the fast path exists for: a
cache hit costs the engine two events (its arrival and its timeout),
and a query of a committed step decodes no WAH word.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.obs import Observability
from repro.perf import kernels
from repro.serve import Query, QueryService, WorkloadDriver, workload
from repro.serve.bench import BENCH_CONFIG
from repro.serve.config import CACHE_HIT_SECONDS, QUERY_COST_BYTES
from repro.serve.service import Answer
from repro.sim.engine import Engine

SEEDS = (11, 20260808, 3)
LOADS = (50.0, 3200.0)
DURATION = 1.5
#: one query's credits, so a client's second query queues behind its first
WAIT_HEAVY = replace(BENCH_CONFIG, credit_bytes=QUERY_COST_BYTES, codel_target=None)
CONFIGS = {
    "bench": BENCH_CONFIG,
    "wait": WAIT_HEAVY,
    "wait-codel": replace(WAIT_HEAVY, codel_target=1e-3),
}


def reference_serve(service, client, qid, query):
    """The serve path as one process per query (the oracle)."""
    env = service.env
    t0 = env.now
    state = service._resolve(query)
    if state is None or not state.partitions:
        return service._finish(Answer(query=query, source="no_data", latency=0.0), t0)
    key = service.cache.key(query.var, state.step, query.shape())
    granted = service.bank.admit((client, qid), QUERY_COST_BYTES) or (
        yield from service.bank.wait(
            (client, qid), QUERY_COST_BYTES,
            can_degrade=service.config.codel_target is not None,
        )
    )
    if not granted:
        service.degraded += 1
        service._obs_inc("serve_degraded")
        cached = service.cache.get(
            key, state.version,
            allow_stale=True, stale_bound=service.config.stale_bound,
        )
        if cached is None:
            service.shed += 1
            service._obs_inc("serve_shed")
            return service._finish(
                Answer(query=query, source="shed", latency=0.0, step=state.step), t0
            )
        yield env.timeout(CACHE_HIT_SECONDS)
        service.stale_served += 1
        return service._finish(service._answer(query, state.step, cached, "stale"), t0)
    version = state.version
    try:
        cached = service.cache.get(key, version)
        if cached is not None:
            service._obs_inc("serve_cache_hits")
            yield env.timeout(CACHE_HIT_SECONDS)
            return service._finish(service._answer(query, state.step, cached, "cache"), t0)
        service._obs_inc("serve_cache_misses")
        result = yield from service._execute(state, query)
        if state.version == version:
            service.cache.put(key, result, version)
        return service._finish(service._answer(query, state.step, result, "fresh"), t0)
    finally:
        service.bank.release((client, qid))


def _drive(monkeypatch, seed, config, qps, *, oracle, obs=False):
    """One ``WorkloadDriver.run``; the load point, the service and the engine."""
    made = {}

    class Service(QueryService):
        def __init__(self, env, *args, **kwargs):
            super().__init__(env, *args, **kwargs)
            made["service"], made["env"] = self, env
            if obs:
                made["obs"] = Observability()
                made["obs"].bind(env)

        if oracle:
            def submit(self, client, qid, query):
                return self.env.process(reference_serve(self, client, qid, query))

    monkeypatch.setattr(workload, "QueryService", Service)
    point = WorkloadDriver(seed=seed, config=config).run(qps, DURATION)
    return point, made


def _books(service):
    bank = service.bank
    return (service.cache.stats, bank.grants, bank.rejections,
            bank.total_sojourn, bank.max_sojourn, bank.outstanding)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("qps", LOADS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_submit_matches_the_per_query_process_oracle(monkeypatch, config, qps, seed):
    want, ref = _drive(monkeypatch, seed, CONFIGS[config], qps, oracle=True)
    got, new = _drive(monkeypatch, seed, CONFIGS[config], qps, oracle=False)
    assert got == want  # every field, the raw latencies included
    assert _books(new["service"]) == _books(ref["service"])
    assert new["env"].now == ref["env"].now
    if qps == max(LOADS):
        # the slow path ran: queries queued for credits (and, under a
        # CoDel target, some gave up and degraded)
        assert ref["service"].bank.max_sojourn > 0.0
        assert (want.degraded > 0) == (CONFIGS[config].codel_target is not None)


def _serve_flow_metrics(obs):
    m = obs.metrics
    return {
        store: {k: v for k, v in getattr(m, store).items()
                if k[0].startswith(("serve_", "flow_"))}
        for store in ("_counters", "_gauges", "_histograms")
    }


@pytest.mark.parametrize("config", ["bench", "wait-codel"])
def test_submit_matches_the_oracle_with_observability_bound(monkeypatch, config):
    want, ref = _drive(monkeypatch, 11, CONFIGS[config], 3200.0, oracle=True, obs=True)
    got, new = _drive(monkeypatch, 11, CONFIGS[config], 3200.0, oracle=False, obs=True)
    assert got == want
    metrics = _serve_flow_metrics(new["obs"])
    assert metrics == _serve_flow_metrics(ref["obs"])
    assert metrics["_counters"][("serve_cache_hits", ())] > 0
    assert metrics["_counters"][("flow_credit_rejections", (("stage", 0),))] > 0


# ------------------------------------------------------------- count gates
def test_a_cache_hit_costs_two_engine_events(monkeypatch):
    """Every event the engine pops, per issued query: the arrival, and a
    hit's one timeout; only misses and queued queries pay for more.  On
    the sweep's top load point (12 s, 98 % hits) the per-query-process
    path pops 3.06 per query, this one 2.08.  (The first seconds are
    miss-heavy: at 1.5 s the two read 3.45 and 2.62.)"""
    made = {}

    class Recorded(Engine):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            made["env"] = self

    monkeypatch.setattr(workload, "Engine", Recorded)
    point = WorkloadDriver(seed=11, config=BENCH_CONFIG).run(3200.0, 12.0)
    assert point.cache_hits / point.issued > 0.95
    pops = made["env"]._seq  # the run drained: every pushed entry popped
    assert pops / point.issued <= 2.2


def test_queries_of_a_committed_step_decode_no_wah_word(monkeypatch):
    calls = []
    decode = kernels.wah_decode

    def counted(words, nbits):
        calls.append(nbits)
        return decode(words, nbits)

    monkeypatch.setattr(kernels, "wah_decode", counted)
    env = Engine()
    service = QueryService(env)
    rng = np.random.default_rng(1)
    service.commit_step("rho", 0, partitions=[
        rng.normal(loc=10.0 * i, scale=3.0, size=(64, 3)) for i in range(6)
    ])
    answers = []

    def client():
        for qid, ranges in enumerate(({0: (5.0, 40.0)}, {0: (12.0, 31.0), 1: (0.0, 9.0)})):
            answers.append((yield service.submit("c0", qid, Query.range("rho", ranges))))

    env.process(client())
    env.run()
    assert [(a.source, a.shards > 0) for a in answers] == [("fresh", True)] * 2
    assert calls == []


def test_a_finished_run_leaves_no_cycle_holding_its_engine(monkeypatch):
    """Without the cycle collector, the engine of a finished load point is
    freed by reference counting alone.  A CoDel deadline that beats a
    credit grant leaves the waiter's event unfired; the condition it was
    part of must not keep a cycle through it."""
    engines = []

    class Recorded(Engine):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            engines.append(weakref.ref(self))

    monkeypatch.setattr(workload, "Engine", Recorded)
    gc.collect()
    gc.disable()
    try:
        point = WorkloadDriver(seed=11, config=BENCH_CONFIG).run(3200.0, DURATION)
        assert point.degraded > 0  # the deadline path ran
        assert len(engines) == 1 and engines[0]() is None
    finally:
        gc.enable()
