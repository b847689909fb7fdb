"""Tests for the experiment harness itself (fast configurations)."""

import pytest

from repro.experiments.report import (
    fmt_bytes,
    fmt_pct,
    fmt_seconds,
    format_table,
)
from repro.experiments.runner import (
    _gtc_sizing,
    _pixie_sizing,
    gtc_operators,
    gtc_scales,
    pixie3d_scales,
    run_gtc,
    run_pixie3d,
)

FAST = dict(ndumps=1, iterations_per_dump=2,
            compute_seconds_per_iteration=5.0)


# ------------------------------------------------------------- report
def test_fmt_seconds():
    assert fmt_seconds(123.4) == "123 s"
    assert fmt_seconds(1.5) == "1.50 s"
    assert fmt_seconds(0.0123) == "12.30 ms"
    assert fmt_seconds(2e-6) == "2.0 us"


def test_fmt_bytes():
    assert fmt_bytes(2e12) == "2.00 TB"
    assert fmt_bytes(1.5e9) == "1.50 GB"
    assert fmt_bytes(3e6) == "3.00 MB"
    assert fmt_bytes(999) == "999 B"


def test_fmt_pct():
    assert fmt_pct(0.0275) == "2.75%"


def test_format_table_alignment():
    text = format_table(["a", "bbb"], [[1, "x"], [22, "yy"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bbb" in lines[1]
    assert all(len(l) == len(lines[1]) for l in lines[2:])


# -------------------------------------------------------------- sizing
def test_gtc_sizing_ratios():
    procs, staging, r, r_s = _gtc_sizing(16384, rep_ranks=64)
    assert procs == 2048  # 8 cores/node, 1 proc/node
    assert staging == 64  # 64:1 cores -> 2 procs x 4 threads per node
    assert r == 64 and r_s == 2
    # the per-staging-proc load matches the logical ratio
    assert procs / staging == pytest.approx(r / r_s)


def test_gtc_sizing_small_scale_exact():
    procs, staging, r, r_s = _gtc_sizing(512, rep_ranks=64)
    assert (procs, staging, r, r_s) == (64, 2, 64, 2)


def test_gtc_sizing_rejects_nonmultiple():
    with pytest.raises(ValueError):
        _gtc_sizing(100, 64)


def test_pixie_sizing():
    procs, staging, r, r_s = _pixie_sizing(4096, rep_ranks=64)
    assert procs == 4096  # 1 proc/core
    assert staging == 16  # 128:1 cores
    assert r == 64


def test_scales_lists():
    assert gtc_scales()[0] == 512 and gtc_scales()[-1] == 16384
    assert pixie3d_scales()[-1] == 4096


def test_gtc_operators_both_species():
    for kind in ("sort", "histogram", "histogram2d"):
        ops = gtc_operators(kind)
        assert len(ops) == 2
        names = {op.name for op in ops}
        assert any("electrons" in n for n in names)
        assert any("ions" in n for n in names)
    with pytest.raises(ValueError):
        gtc_operators("fft")


# ----------------------------------------------------------- run_gtc
def test_run_gtc_rejects_bad_placement():
    with pytest.raises(ValueError):
        run_gtc(512, "somewhere", "sort")


def test_run_gtc_none_placement_baseline():
    r = run_gtc(512, "none", "sort", **FAST)
    assert r.metrics.operations == 0.0
    assert r.staging_reports == []
    assert r.visible_write_seconds > 0  # sync write still happens


def test_run_gtc_results_consistent():
    r = run_gtc(512, "staging", "sort", **FAST)
    assert r.nprocs_logical == 64
    assert r.rep_ranks == 64
    assert len(r.staging_reports) == 1
    assert r.cpu_seconds > r.metrics.total * 512  # staging cores billed


def test_run_gtc_deterministic():
    a = run_gtc(512, "staging", "histogram", **FAST)
    b = run_gtc(512, "staging", "histogram", **FAST)
    assert a.metrics.total == pytest.approx(b.metrics.total)
    assert a.staging_reports[0].latency == pytest.approx(
        b.staging_reports[0].latency
    )


# --------------------------------------------------------- run_pixie3d
def test_run_pixie3d_rejects_bad_placement():
    with pytest.raises(ValueError):
        run_pixie3d(256, "offline")


def test_run_pixie3d_collect_files():
    ic = run_pixie3d(256, "incompute", collect_files=True,
                     iterations_per_dump=2, collective_rounds=2)
    st = run_pixie3d(256, "staging", collect_files=True,
                     iterations_per_dump=2, collective_rounds=2)
    assert ic.unmerged_file is not None
    assert st.merged_file is not None
    assert (
        st.merged_file.extents_for("rho", 0)
        < ic.unmerged_file.extents_for("rho", 0)
    )


def test_run_pixie3d_staging_steal_applies_only_to_staging():
    ic = run_pixie3d(256, "incompute", iterations_per_dump=2,
                     collective_rounds=2, staging_steal=0.5)
    st = run_pixie3d(256, "staging", iterations_per_dump=2,
                     collective_rounds=2, staging_steal=0.5)
    assert st.metrics.compute > ic.metrics.compute * 1.3
