"""Chaos benchmark: staging-node crash mid-step, recovery + zero loss.

The resilience subsystem's acceptance scenario at 512–2048 logical
ranks: a seeded :class:`~repro.faults.injector.FaultInjector` kills one
staging node while a step is in flight.  Asserted here:

- the run completes and **every** dump step reads back bit-for-bit
  from the merged BP file (or the synchronous fallback) — zero data
  loss;
- survivors detect the death within the heartbeat bound and re-execute
  the interrupted step (recovery latency is finite and ordered with
  scale: more logical volume -> more re-fetched data);
- the whole scenario is reproducible event-for-event under a fixed
  seed, and killing *all* staging nodes degrades gracefully to
  synchronous In-Compute-Node writes instead of losing dumps.
"""

from repro.experiments.chaos import fingerprint, run_chaos, run_once
from repro.faults import ResilienceConfig


def test_chaos_recovery(once):
    rows = once(run_chaos)
    print()
    for r in rows:
        print(
            f"{r.logical_ranks:5d} logical ranks: killed node "
            f"{r.killed_node}, detect {r.detection_seconds:.2f} s, "
            f"recover {r.recovery_seconds:.2f} s, "
            f"restarts {r.restarts}, complete={r.complete}, "
            f"overhead {r.overhead_fraction * 100:.1f}%"
        )
    for r in rows:
        # the run completed and every step is readable back
        assert r.complete, f"{r.logical_ranks}: data lost"
        # the crash was actually recovered from, not avoided
        assert r.restarts >= 1
        assert r.recovery_seconds is not None and r.recovery_seconds > 0
        # detection is bounded by heartbeat timeout + sweep interval
        cfg = ResilienceConfig()
        assert (
            r.detection_seconds
            <= cfg.heartbeat_timeout + 2 * cfg.heartbeat_interval
        )
        # recovery costs something but the run is not derailed
        assert 0.0 <= r.overhead_fraction < 1.0
    # more logical volume -> at least as much re-fetch work to recover
    recoveries = [r.recovery_seconds for r in rows]
    assert recoveries == sorted(recoveries)


def test_chaos_deterministic_under_fixed_seed(once):
    def both():
        return run_once(seed=21), run_once(seed=21), run_once(seed=22)

    a, b, c = once(both)
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)  # the seed really steers faults


def test_chaos_all_stagers_dead_degrades_without_loss(once):
    """Kill every staging node: dumps fall back synchronously, none lost."""

    def run():
        r = run_once(nstaging_nodes=1, seed=5)
        return r

    r = once(run)
    print()
    print(
        f"all stagers dead: degraded steps {r.degraded_steps}, "
        f"complete={r.complete}, fallback file "
        f"{'present' if r.fallback_file is not None else 'absent'}"
    )
    assert r.complete, f"missing steps: {r.missing_steps}"
    # the client switched to synchronous in-compute-node writes
    assert r.predata.client.degraded
    assert r.degraded_steps > 0
    # the salvaged + degraded dumps live in the fallback BP file
    assert r.fallback_file is not None
