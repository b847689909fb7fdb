"""Property-based invariants of the flow-control subsystem.

Hypothesis drives complete chaos scenarios — random fault seeds, pool
fractions from comfortable down to 1/8 of the per-step working set,
varying fetch-pipeline depths, with and without a staging-node kill —
and asserts the ledger invariants the subsystem exists to enforce:

* no staging node's memory ledger ever exceeds ``memory_bytes``;
* the buffer pool never holds more than ``max(capacity, one chunk)``
  (a single chunk larger than the pool is granted alone by design);
* after the run drains, every byte is released — node ledgers, pool
  tickets and credit grants all return to zero, even when a staging
  node was killed mid-step and its work failed over;
* each pool and its node's ledger agree: every pool refund (a spill, a
  release, a cancelled grant) finds the node ledger already down by
  the refunded bytes, which is what lets the pool mirror its charges
  with a plain ``Node.allocate``;
* the run itself completes with every step recovered.

A separate property pins determinism: identical seeds and flow
configurations must reproduce the run fingerprint exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flow.pool import BufferPool
from repro.scenarios import ChaosRun, crash_run, fingerprint, run_once, workload

# Mirror run_once's sizing so the expected chunk size is known.
REP_RANKS = 8
NSTAGING_NODES = 2
LOGICAL_RANKS = 512

COMMON_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _chunk_bytes() -> float:
    """One compute rank's packed chunk size inside run_once."""
    real = workload.LOCAL_N**3 * 8
    scale = max(1.0, LOGICAL_RANKS * workload.PER_LOGICAL_RANK_MB * 1e6 / (REP_RANKS * real))
    return real * scale


def _run(seed: int, fraction: float, inject: bool, depth: int) -> ChaosRun:
    """A staging-crash run at harness seed *seed*, or, when *inject* is
    false, the same workload without faults."""
    config = dict(
        logical_ranks=LOGICAL_RANKS,
        rep_ranks=REP_RANKS,
        nstaging_nodes=NSTAGING_NODES,
        flow_fraction=fraction,
        fetch_pipeline_depth=depth,
    )
    return crash_run(seed, **config) if inject else run_once(**config)


@COMMON_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=99_999),
    fraction=st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0]),
    inject=st.booleans(),
    depth=st.sampled_from([2, 4, 6]),
)
def test_flow_ledgers_bounded_and_fully_drained(seed, fraction, inject, depth):
    """Memory never exceeds the cap and every byte is released by drain."""
    refund = BufferPool._refund
    drift = []  # (pool bytes - refunded) - node ledger, at every refund

    def checked_refund(pool, nbytes):
        drift.append(pool.used - nbytes - pool.node.memory_used)
        refund(pool, nbytes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BufferPool, "_refund", checked_refund)
        run = _run(seed, fraction, inject, depth)
    assert run.complete and not run.missing_steps
    assert drift and drift == pytest.approx([0.0] * len(drift), abs=1e-6)

    machine = run.predata.machine
    chunk = _chunk_bytes()
    for nid in machine.staging_node_ids:
        node = machine.node(nid)
        # hard bound: the ledger never exceeded physical node memory
        assert node.memory_high_water <= node.config.memory_bytes + 1e-6
        # full drain: nothing leaked, even on the killed node
        assert node.memory_used == pytest.approx(0.0, abs=1e-6)

    fc = run.predata.flow
    assert fc is not None
    for nid, pool in fc.pools.items():
        # the pool may exceed capacity only via a single oversized grant
        assert pool.peak_bytes <= max(pool.capacity, chunk) + 1e-6
        assert pool.used == pytest.approx(0.0, abs=1e-6)
        assert pool.used == pytest.approx(machine.node(nid).memory_used, abs=1e-6)
        assert not pool._tickets
        assert pool.queued == 0
    for bank in fc.banks.values():
        assert bank.outstanding == pytest.approx(0.0, abs=1e-6)
        assert bank.queued == 0


@COMMON_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=99_999),
    inject=st.booleans(),
)
def test_tight_pool_under_kill_still_bounded(seed, inject):
    """The harshest corner: 1/8-working-set pool, deep pipeline, kill."""
    run = _run(seed, 0.125, inject, 6)
    assert run.complete and not run.missing_steps
    fc = run.predata.flow
    for pool in fc.pools.values():
        assert pool.used == pytest.approx(0.0, abs=1e-6)
        assert not pool._tickets
    for node_id in run.predata.machine.staging_node_ids:
        node = run.predata.machine.node(node_id)
        assert node.memory_used == pytest.approx(0.0, abs=1e-6)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=99_999))
def test_flow_chaos_fingerprint_deterministic(seed):
    """Same seed + same flow config reproduce the fingerprint exactly."""
    a = _run(seed, 0.25, True, 4)
    b = _run(seed, 0.25, True, 4)
    assert fingerprint(a) == fingerprint(b)
    assert a.engine.now == b.engine.now
    assert a.flow_spill_bytes == b.flow_spill_bytes
