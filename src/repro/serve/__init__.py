"""Query serving against completed and in-flight steps (§IV.D–E).

PreDatA's staging area is not only a pipeline: once chunks are
indexed, clients query the staged data *while the simulation still
runs*.  This package models that serving side under heavy client
traffic:

- :mod:`repro.serve.cache` — a versioned LRU result cache keyed by
  ``(var, step, query-shape)``, invalidated when a step commits or an
  in-flight step's chunks land;
- :mod:`repro.serve.shard` — index ownership sharded across staging
  nodes by Hilbert-SFC hashing (:mod:`repro.dataspaces.sfc`), queries
  scatter/gathered over the owners;
- :mod:`repro.serve.service` — the serve path: credit-based admission
  with a CoDel-style latency bound (reusing :mod:`repro.flow`) that
  degrades to stale-but-bounded cache reads under pressure;
- :mod:`repro.serve.workload` — a seeded open-loop client driver;
- :mod:`repro.serve.bench` — the offered-load sweep behind
  ``BENCH_query.json``.

The subsystem is strictly additive: nothing in the staging pipeline
imports it, and runs without a :class:`QueryService` are byte-identical
to pre-serve builds (the flag matrix asserts this).
"""

from repro.serve.cache import CacheStats, QueryCache
from repro.serve.config import ServeConfig
from repro.serve.service import Answer, Query, QueryService
from repro.serve.shard import (
    ShardedStepIndex,
    merge_aggregates,
    partial_aggregate,
)
from repro.serve.workload import LoadPoint, WorkloadDriver

__all__ = [
    "Answer",
    "CacheStats",
    "LoadPoint",
    "Query",
    "QueryCache",
    "QueryService",
    "ServeConfig",
    "ShardedStepIndex",
    "WorkloadDriver",
    "merge_aggregates",
    "partial_aggregate",
]
