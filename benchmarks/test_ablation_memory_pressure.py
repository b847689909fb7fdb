"""Ablation — staging memory pressure under flow control.

PreDatA's staging area is a small slice of the machine; §IV argues the
staging services must live within a fixed memory budget while compute
ranks dump at full rate.  This ablation sweeps the per-staging-node
buffer-pool capacity from 4x the per-step working set (no pressure)
down to 1/8x (every chunk spills) and reports, per point:

- spilled bytes (pool -> parallel file system traffic),
- mean credit-queue sojourn (how long writes wait for admission),
- simulated-time slowdown vs. the ungoverned baseline.

Shape claims asserted:

- with headroom (>= 1x working set) the governed pipeline is
  byte-identical in time to the ungoverned baseline — flow control is
  free when memory is ample;
- below 1x, spilling kicks in and grows monotonically as the pool
  shrinks;
- even at 1/8x every run completes every step — governed degradation,
  never a crash — at a bounded slowdown.
"""

from repro.scenarios import run_once

FRACTIONS = [4.0, 2.0, 1.0, 0.5, 0.25, 0.125]
DEPTH = 6  # deep fetch pipeline: worst-case concurrent chunk pressure


def _point(fraction=None):
    """One no-fault chaos run (the shared workload) at a pool fraction."""
    return run_once(
        flow_fraction=fraction,
        fetch_pipeline_depth=DEPTH,
    )


def test_ablation_memory_pressure(once):
    def measure():
        baseline = _point(fraction=None)  # flow disabled entirely
        sweep = [(f, _point(fraction=f)) for f in FRACTIONS]
        return baseline, sweep

    baseline, sweep = once(measure)
    base_wall = baseline.wall_seconds

    print()
    print(f"{'pool/WS':>8} {'spill GB':>9} {'sojourn ms':>11} "
          f"{'wall s':>8} {'slowdown':>9}")
    print(f"{'(off)':>8} {0.0:>9.2f} {0.0:>11.2f} {base_wall:>8.2f} "
          f"{1.0:>9.2f}x")
    for f, run in sweep:
        slow = run.wall_seconds / base_wall
        print(f"{f:>8.3f} {run.flow_spill_bytes / 1e9:>9.2f} "
              f"{run.flow_mean_sojourn * 1e3:>11.2f} "
              f"{run.wall_seconds:>8.2f} {slow:>9.2f}x")

    # every point completes every step: governed degradation, no crash
    assert baseline.complete
    for _f, run in sweep:
        assert run.complete and not run.missing_steps

    by_frac = dict(sweep)
    # ample memory: flow control costs nothing and spills nothing
    for f in (4.0, 2.0):
        assert by_frac[f].flow_spill_bytes == 0.0
        assert by_frac[f].wall_seconds == base_wall
    # shrinking the pool below the working set forces spilling, and the
    # spilled volume grows monotonically as the pool shrinks
    assert by_frac[0.25].flow_spill_bytes > 0.0
    spills = [by_frac[f].flow_spill_bytes for f in (1.0, 0.5, 0.25, 0.125)]
    assert spills == sorted(spills)
    # pressure costs time, but boundedly: the harshest point still
    # finishes within a small multiple of the ungoverned baseline
    assert by_frac[0.125].wall_seconds >= base_wall
    assert by_frac[0.125].wall_seconds <= 5.0 * base_wall
