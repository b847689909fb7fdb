"""Fidelity checks: representative-rank methodology and preset sanity."""

import pytest

from repro.experiments.runner import run_gtc, run_pixie3d
from repro.machine import JAGUAR_XT4, JAGUAR_XT5, TESTING_TINY

FAST = dict(ndumps=1, iterations_per_dump=2,
            compute_seconds_per_iteration=10.0)


def test_rep_rank_scaling_consistent_gtc():
    """Fewer representatives must predict ~the same run.

    At 512 cores the exact run simulates all 64 processes; a 16-rank
    representative run of the same job must agree on the headline
    quantities within a modest tolerance — the internal validity check
    of the whole scaling methodology.
    """
    exact = run_gtc(512, "incompute", "sort", rep_ranks=64, **FAST)
    rep = run_gtc(512, "incompute", "sort", rep_ranks=16, **FAST)
    assert rep.metrics.total == pytest.approx(exact.metrics.total, rel=0.15)
    assert rep.metrics.io_blocking == pytest.approx(
        exact.metrics.io_blocking, rel=0.5
    )
    assert rep.metrics.operations == pytest.approx(
        exact.metrics.operations, rel=0.35
    )


def test_rep_rank_scaling_consistent_gtc_staging():
    # Representative counts must preserve the compute:staging ratio
    # (the runner floors staging at 2 procs, so 1024 cores is the
    # smallest scale with a ratio-faithful half-size representation).
    exact = run_gtc(1024, "staging", "histogram", rep_ranks=128, **FAST)
    rep = run_gtc(1024, "staging", "histogram", rep_ranks=64, **FAST)
    lat_exact = exact.staging_reports[0].latency
    lat_rep = rep.staging_reports[0].latency
    assert lat_rep == pytest.approx(lat_exact, rel=0.25)


def test_rep_rank_scaling_consistent_pixie():
    exact = run_pixie3d(256, "incompute", rep_ranks=256,
                        iterations_per_dump=2, collective_rounds=2)
    rep = run_pixie3d(256, "incompute", rep_ranks=64,
                      iterations_per_dump=2, collective_rounds=2)
    assert rep.metrics.total == pytest.approx(exact.metrics.total, rel=0.15)


def test_rep_rank_scaling_consistent_pixie_staging_at_full_rank_count():
    # R = P: every one of the 1024 processes is simulated, four per XT4
    # node, each node's four in one process
    exact = run_pixie3d(1024, "staging", rep_ranks=1024,
                        iterations_per_dump=2, collective_rounds=2)
    rep = run_pixie3d(1024, "staging", rep_ranks=64,
                      iterations_per_dump=2, collective_rounds=2)
    assert exact.rep_ranks == 1024 and rep.rep_ranks == 64
    assert rep.metrics.total == pytest.approx(exact.metrics.total, rel=1e-3)


# ----------------------------------------------------------- presets
def test_jaguar_presets_match_paper_description():
    # §V.A: XT5 = 2x quad-core 2.3 GHz, 16 GB; XT4 = quad-core 2.1 GHz, 8 GB
    assert JAGUAR_XT5.node.cores == 8
    assert JAGUAR_XT5.node.memory_bytes == 16 * 2**30
    assert JAGUAR_XT5.max_nodes == 18_688
    assert JAGUAR_XT4.node.cores == 4
    assert JAGUAR_XT4.node.memory_bytes == 8 * 2**30
    assert JAGUAR_XT4.max_nodes == 7_832
    # XT5 is the faster machine in every dimension
    assert JAGUAR_XT5.node.core_flops > JAGUAR_XT4.node.core_flops
    assert (JAGUAR_XT5.network.link_bandwidth
            > JAGUAR_XT4.network.link_bandwidth)
    assert (JAGUAR_XT5.filesystem.aggregate_bandwidth
            > JAGUAR_XT4.filesystem.aggregate_bandwidth)


def test_preset_scaled_replaces_fields():
    from dataclasses import replace

    node2 = replace(TESTING_TINY.node, cores=16)
    spec2 = TESTING_TINY.scaled(node=node2, name="custom")
    assert spec2.node.cores == 16
    assert spec2.name == "custom"
    assert TESTING_TINY.node.cores == 2  # original untouched


def test_write_time_magnitude_at_paper_scale():
    """260 GB over Jaguar's Lustre lands in the high single digits of
    seconds — the §V.B.2 anchor (8.6 s)."""
    r = run_gtc(16384, "incompute", "sort", **FAST)
    per_dump = r.metrics.io_blocking  # one dump in FAST mode
    assert 4.0 < per_dump < 25.0
