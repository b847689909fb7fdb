"""Detailed unit + property tests for the built-in operators."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adios import GroupDef, OutputStep, VarDef, VarKind
from repro.core.operator import Emit, OperatorContext, PreDatAOperator
from repro.machine.filesystem import ParallelFileSystem
from repro.mpi import nbytes_of
from repro.operators import (
    HistogramOperator,
    Histogram2DOperator,
    MinMaxOperator,
    SampleSortOperator,
)
from repro.operators.bitmap import BitmapIndex, WAHBitmap
from repro.sim import Engine

GROUP = GroupDef(
    "p", (VarDef("electrons", "float64", VarKind.LOCAL_ARRAY, ndim=2),)
)


def step_of(data, rank=0, scale=1.0):
    return OutputStep(group=GROUP, step=0, rank=rank,
                      values={"electrons": np.atleast_2d(data)},
                      volume_scale=scale)


def ctx_of(rank=0, nworkers=4, aggregated=None, scale=1.0):
    return OperatorContext(rank=rank, nworkers=nworkers, step=0,
                           aggregated=aggregated, volume_scale=scale)


# ------------------------------------------------------------- WAH
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_wah_roundtrip_property(data):
    n = data.draw(st.integers(min_value=1, max_value=400))
    mask = np.array(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    )
    bm = WAHBitmap.from_mask(mask)
    np.testing.assert_array_equal(bm.to_mask(), mask)
    assert bm.count() == int(mask.sum())


def test_wah_compresses_runs():
    sparse = np.zeros(10_000, dtype=bool)
    sparse[5000] = True
    dense_random = np.random.default_rng(0).random(10_000) > 0.5
    assert WAHBitmap.from_mask(sparse).nbytes < 40
    assert WAHBitmap.from_mask(sparse).nbytes < WAHBitmap.from_mask(
        dense_random
    ).nbytes / 20


def test_wah_or():
    a = np.zeros(100, dtype=bool)
    b = np.zeros(100, dtype=bool)
    a[10:20] = True
    b[15:40] = True
    combined = WAHBitmap.from_mask(a) | WAHBitmap.from_mask(b)
    np.testing.assert_array_equal(combined.to_mask(), a | b)


def test_wah_or_length_mismatch():
    a = WAHBitmap.from_mask(np.zeros(10, dtype=bool))
    b = WAHBitmap.from_mask(np.zeros(20, dtype=bool))
    with pytest.raises(ValueError):
        _ = a | b


# ----------------------------------------------------- bitmap index
@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    bins=st.integers(min_value=1, max_value=64),
    lo=st.floats(min_value=-3, max_value=3),
    width=st.floats(min_value=0.0, max_value=4.0),
)
def test_bitmap_index_query_property(seed, bins, lo, width):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=200)
    idx = BitmapIndex(values, bins=bins)
    res = idx.query(lo, lo + width)
    brute = (values >= lo) & (values <= lo + width)
    np.testing.assert_array_equal(res.mask, brute)


def test_bitmap_index_candidate_check_bounded():
    values = np.linspace(0, 1, 10_000)
    idx = BitmapIndex(values, bins=100)
    res = idx.query(0.5, 0.6)
    # edge bins only: ~2 bins of 100 rows each get re-checked
    assert res.rows_checked <= 2 * (10_000 // 100 + 1)
    assert res.nrows == int(((values >= 0.5) & (values <= 0.6)).sum())


def test_bitmap_index_empty_and_errors():
    idx = BitmapIndex(np.empty(0))
    assert idx.query(0, 1).nrows == 0
    with pytest.raises(ValueError):
        BitmapIndex(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        BitmapIndex(np.zeros(4), bins=0)
    with pytest.raises(ValueError):
        BitmapIndex(np.arange(4.0)).query(1.0, 0.0)


def test_bitmap_index_constant_values():
    idx = BitmapIndex(np.full(50, 7.0), bins=8)
    assert idx.query(6.0, 8.0).nrows == 50
    assert idx.query(8.5, 9.0).nrows == 0


def wah_reference_query(idx, lo, hi):
    """The range query as decode-then-OR over the WAH bitmaps (the oracle
    for ``BitmapIndex.query``, which reads bin codes instead)."""
    vals = idx.values
    if vals.size == 0:
        return np.zeros(0, dtype=bool), 0
    first, last = (
        int(np.clip(np.searchsorted(idx.edges, v, side="right") - 1, 0, idx.bins - 1))
        for v in (lo, hi)
    )
    mask = np.zeros(vals.size, dtype=bool)
    for b in range(first + 1, last):  # fully-covered interior bins
        mask |= idx.bitmaps[b].to_mask()
    rows_checked = 0
    for b in {first, last}:  # edge bins: candidate check
        cand = idx.bitmaps[b].to_mask()
        rows_checked += int(cand.sum())
        mask |= cand & (vals >= lo) & (vals <= hi)
    return mask, rows_checked


def _assert_matches_wah_oracle(idx, lo, hi):
    res = idx.query(lo, hi)
    mask, rows_checked = wah_reference_query(idx, lo, hi)
    np.testing.assert_array_equal(res.mask, mask)
    assert res.rows_checked == rows_checked


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    bins=st.integers(min_value=1, max_value=40),
    a=st.floats(min_value=-5, max_value=5),
    b=st.floats(min_value=-5, max_value=5),
    snap=st.booleans(),
)
def test_bitmap_query_matches_the_wah_decode_or_oracle(seed, bins, a, b, snap):
    rng = np.random.default_rng(seed)
    # given edges narrower than the data: rows below and above them clip
    # into the end bins; the edges themselves are rows too
    edges = np.linspace(-2.0, 2.0, bins + 1)
    values = np.concatenate([rng.normal(size=150), edges])
    idx = BitmapIndex(values, edges=edges)
    lo, hi = sorted((a, b))
    if snap:  # bounds exactly on edges
        lo, hi = (float(edges[np.abs(edges - v).argmin()]) for v in (lo, hi))
    _assert_matches_wah_oracle(idx, lo, hi)


@pytest.mark.parametrize("bins", [1, 2, 7, 300])
def test_bitmap_query_oracle_edge_cases(bins):
    values = np.concatenate([np.linspace(0.0, 1.0, 97), np.linspace(0.0, 1.0, bins + 1)])
    idx = BitmapIndex(values, bins=bins)
    e = idx.edges
    mid = e[bins // 2]
    cases = [
        (mid, mid),  # first == last, on an edge
        (e[0], e[-1]),  # exactly the index's span
        (e[-1], e[-1]),  # the top edge: clipped into the last bin
        (-5.0, 5.0),  # both outside
        (-5.0, -1.0),  # wholly below
        (2.0, 5.0),  # wholly above
        (0.3, 0.31),  # inside one bin (or two)
        (e[0], mid),
    ]
    for lo, hi in cases:
        _assert_matches_wah_oracle(idx, lo, hi)
    assert idx.codes.dtype == (np.uint8 if bins <= 256 else np.uint16)
    assert not idx.codes.flags.writeable


def test_bitmap_codes_are_built_by_the_first_query_only():
    idx = BitmapIndex(np.arange(40.0), bins=8)
    assert idx._codes is None  # an index nobody queries holds only WAH words
    idx.query(3.0, 9.0)
    codes = idx._codes
    assert codes is not None
    idx.query(1.0, 2.0)
    assert idx._codes is codes
    empty = BitmapIndex(np.empty(0))
    _assert_matches_wah_oracle(empty, 0.0, 1.0)
    assert empty.query(0.0, 1.0).rows_checked == 0


# ---------------------------------------------------------- sort op
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=999),
    nworkers=st.integers(min_value=1, max_value=7),
    nchunks=st.integers(min_value=1, max_value=6),
)
def test_sample_sort_pipeline_property(seed, nworkers, nchunks):
    """Drive the operator's phases directly with random configs."""
    rng = np.random.default_rng(seed)
    op = SampleSortOperator("electrons", key_column=0)
    chunks = []
    for r in range(nchunks):
        rows = rng.integers(1, 40)
        data = rng.random((rows, 8))
        data[:, 0] = rng.permutation(1000)[:rows]
        chunks.append(step_of(data, rank=r))
    partials = [op.partial_calculate(s) for s in chunks]
    pool = op.aggregate(partials)
    # every worker initialises with the same aggregated pool
    ctxs = [ctx_of(rank=w, nworkers=nworkers, aggregated=pool)
            for w in range(nworkers)]
    for c in ctxs:
        op.initialize(c)
    # map on a single 'staging rank' then route by partition
    routed = {w: [] for w in range(nworkers)}
    for s in chunks:
        for e in op.map(ctxs[0], s):
            routed[op.partition(ctxs[0], e.tag) % nworkers].append(e)
    buckets = {}
    for w, emits in routed.items():
        groups = {}
        for e in emits:
            groups.setdefault(e.tag, []).append(e.value)
        for tag, values in groups.items():
            buckets[w] = op.reduce(ctxs[w], tag, values)
    # global order + conservation
    all_rows = sum(len(v) for v in buckets.values())
    assert all_rows == sum(np.atleast_2d(s.values["electrons"]).shape[0]
                           for s in chunks)
    prev_max = -np.inf
    for w in sorted(buckets):
        keys = np.atleast_2d(buckets[w])[:, 0]
        assert np.all(np.diff(keys) >= 0)
        assert keys[0] >= prev_max
        prev_max = keys[-1]


def test_sort_validation():
    with pytest.raises(ValueError):
        SampleSortOperator("v", 0, samples_per_rank=0)


# ---- regression: empty buckets must flow as well-formed (0, k) arrays
def test_sort_empty_bucket_reduce_and_finalize():
    op = SampleSortOperator("electrons", key_column=0)
    data = np.random.default_rng(0).random((30, 8))
    agg = op.aggregate([op.partial_calculate(step_of(data))])
    ctx = ctx_of(nworkers=4, aggregated=agg)
    op.initialize(ctx)
    out = op.reduce(ctx, 0, [])
    assert out.shape == (0, 8)  # row width carried end to end
    fin = op.finalize(ctx, {})
    assert np.asarray(fin).shape == (0, 8)
    # downstream column access on the empty result must not crash
    assert np.atleast_2d(fin)[:, 0].shape == (0,)


def test_sort_empty_rank_still_carries_width():
    op = SampleSortOperator("electrons", key_column=0)
    empty = op.partial_calculate(step_of(np.empty((0, 8))))
    full = op.partial_calculate(step_of(np.random.default_rng(1).random((5, 8))))
    agg = op.aggregate([empty, full])
    ctx = ctx_of(nworkers=3, aggregated=agg)
    op.initialize(ctx)
    assert ctx.storage["width"] == 8
    # an all-empty step aggregates to None (nothing to sort)
    assert op.aggregate([empty]) is None


# ---- regression: key skew must not produce duplicate splitters
def test_sort_skewed_keys_splitters_strictly_increasing():
    op = SampleSortOperator("electrons", key_column=0, samples_per_rank=128)
    skew = np.full((100, 5), 5.0)
    tail = np.full((1, 5), 9.0)
    agg = op.aggregate([
        op.partial_calculate(step_of(skew)),
        op.partial_calculate(step_of(tail, rank=1)),
    ])
    ctxs = [ctx_of(rank=w, nworkers=8, aggregated=agg) for w in range(8)]
    for c in ctxs:
        op.initialize(c)
    splitters = ctxs[0].storage["splitters"]
    assert np.all(np.diff(splitters) > 0)  # strictly increasing
    # drive the full local pipeline: all rows land somewhere, every
    # bucket (including the legal empty ones) is well-formed and the
    # global order across reducers holds
    routed = {w: [] for w in range(8)}
    for s in (step_of(skew), step_of(tail, rank=1)):
        for e in op.map(ctxs[0], s):
            routed[op.partition(ctxs[0], e.tag) % 8].append(e.value)
    buckets = {w: op.reduce(ctxs[w], w, vs) for w, vs in routed.items()}
    assert sum(len(b) for b in buckets.values()) == 101
    prev_max = -np.inf
    for w in sorted(buckets):
        b = np.atleast_2d(buckets[w])
        assert b.ndim == 2 and b.shape[1] in (0, 5)
        if b.shape[0]:
            keys = b[:, 0]
            assert np.all(np.diff(keys) >= 0)
            assert keys[0] >= prev_max
            prev_max = keys[-1]


def test_sort_initialize_without_aggregate_fails():
    op = SampleSortOperator("electrons", 0)
    with pytest.raises(RuntimeError):
        op.initialize(ctx_of(aggregated=None))


# ------------------------------------------------------- histograms
def test_histogram_constant_column():
    op = HistogramOperator("electrons", column=0, bins=8)
    data = np.zeros((20, 8))
    agg = op.aggregate([op.partial_calculate(step_of(data))])
    assert agg is not None and len(agg) == 9  # degenerate range widened
    ctx = ctx_of(aggregated=agg)
    op.initialize(ctx)
    emits = list(op.map(ctx, step_of(data)))
    assert emits[0].value.sum() == 20


def test_histogram_empty_chunk_partial():
    op = HistogramOperator("electrons", column=0)
    assert op.partial_calculate(step_of(np.empty((0, 8)))) is None


def test_histogram_combine_sums():
    op = HistogramOperator("electrons", column=0, bins=4)
    items = [Emit("hist", np.array([1, 2, 3, 4])),
             Emit("hist", np.array([10, 0, 0, 0]))]
    out = op.combine(ctx_of(), items)
    assert len(out) == 1
    np.testing.assert_array_equal(out[0].value, [11, 2, 3, 4])


def test_histogram_combine_passes_a_lone_item_through():
    for op in (HistogramOperator("electrons", column=0, bins=4),
               Histogram2DOperator("electrons", columns=(0, 1), bins=(2, 2))):
        items = [Emit(op._TAG, np.ones(op.bins, dtype=np.int64))]
        assert op.combine(ctx_of(), items) is items
        assert op.combine(ctx_of(), []) == []


def test_emit_is_sized_once_and_frozen():
    arr = np.zeros((3, 8))
    e = Emit(2, arr)
    assert e.nbytes == nbytes_of(arr) + 16 == 3 * 8 * 8 + 16
    assert Emit("t", (arr, None)).nbytes == nbytes_of((arr, None)) + 16
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.value = np.zeros(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.nbytes = 0.0


def test_histogram_validation():
    with pytest.raises(ValueError):
        HistogramOperator("v", 0, bins=0)
    with pytest.raises(ValueError):
        Histogram2DOperator("v", columns=(0,))
    with pytest.raises(ValueError):
        Histogram2DOperator("v", columns=(0, 1), bins=(0, 4))


def test_histogram2d_counts_match_numpy():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(500, 8))
    op = Histogram2DOperator("electrons", columns=(0, 1), bins=(8, 8))
    agg = op.aggregate([op.partial_calculate(step_of(data))])
    ctx = ctx_of(aggregated=agg)
    op.initialize(ctx)
    emits = list(op.map(ctx, step_of(data)))
    expected, _, _ = np.histogram2d(data[:, 0], data[:, 1],
                                    bins=(agg[0], agg[1]))
    np.testing.assert_array_equal(emits[0].value, expected)


# ----------------------------------------- degenerate-input audit
def test_histogram_reduce_empty_values():
    op = HistogramOperator("electrons", column=0, bins=16)
    out = op.reduce(ctx_of(), "hist", [])
    assert out.shape == (16,) and out.sum() == 0


def test_histogram2d_reduce_empty_values():
    op = Histogram2DOperator("electrons", columns=(0, 1), bins=(4, 8))
    out = op.reduce(ctx_of(), "hist2d", [])
    assert out.shape == (4, 8) and out.sum() == 0


def test_histogram2d_map_empty_chunk():
    op = Histogram2DOperator("electrons", columns=(0, 1), bins=(4, 4))
    data = np.random.default_rng(2).normal(size=(10, 8))
    agg = op.aggregate([op.partial_calculate(step_of(data))])
    ctx = ctx_of(aggregated=agg)
    op.initialize(ctx)
    emits = list(op.map(ctx, step_of(np.empty((0, 8)))))
    assert emits[0].value.sum() == 0


def test_bitmap_operator_empty_step_uses_configured_bins():
    from repro.operators import BitmapIndexOperator

    op = BitmapIndexOperator("electrons", column=0, bins=8)
    # all-empty step: no partials -> no aggregated edges
    assert op.partial_calculate(step_of(np.empty((0, 8)))) is None
    assert op.aggregate([None]) is None
    ctx = ctx_of(aggregated=None)
    idx = op.finalize(ctx, {})
    assert idx.bins == 8  # not the BitmapIndex default of 64
    assert idx.query(0.0, 1.0).nrows == 0


def test_bitmap_operator_validation():
    from repro.operators import BitmapIndexOperator

    with pytest.raises(ValueError):
        BitmapIndexOperator("v", 0, bins=0)


def test_array_merge_zero_height_slab():
    from repro.adios.group import ChunkMeta
    from repro.operators import ArrayMergeOperator

    op = ArrayMergeOperator(["field"])
    g = GroupDef(
        "f", (VarDef("field", "float64", VarKind.GLOBAL_ARRAY, ndim=3),)
    )
    data = np.ones((2, 4, 4))
    s = OutputStep(
        group=g, step=0, rank=0, values={"field": data},
        chunks={"field": ChunkMeta((2, 4, 4), (0, 0, 0))},
    )
    agg = op.aggregate([op.partial_calculate(s)])
    # more workers than rows along dim 0 -> some slabs have zero height
    ctxs = [ctx_of(rank=w, nworkers=4, aggregated=agg) for w in range(4)]
    for c in ctxs:
        op.initialize(c)
    routed = {w: [] for w in range(4)}
    for e in op.map(ctxs[0], s):
        routed[op.partition(ctxs[0], e.tag)].append((e.tag, e.value))
    total_rows = 0
    for w, tagged in routed.items():
        for tag, value in tagged:
            _lo, slab = op.reduce(ctxs[w], tag, [value])
            total_rows += slab.shape[0]
    assert total_rows == 2
    # a zero-height slab reduces cleanly from an empty value list
    empty_owner = next(
        w for w in range(4) if not routed[w]
    )
    lo, slab = op.reduce(ctxs[empty_owner], ("field", empty_owner), [])
    assert slab.shape[0] == 0


# ------------------------------------------------------------ minmax
def test_minmax_empty_partial():
    op = MinMaxOperator("electrons")
    assert op.partial_calculate(step_of(np.empty((0, 8)))) is None
    assert op.aggregate([None, None]) is None


def test_minmax_column_accessor():
    op = MinMaxOperator("electrons")
    data = np.array([[1.0, -5.0], [3.0, 2.0]])
    g = GroupDef("p", (VarDef("electrons", "float64",
                              VarKind.LOCAL_ARRAY, ndim=2),))
    s = OutputStep(group=g, step=0, rank=0, values={"electrons": data})
    res = op.aggregate([op.partial_calculate(s)])
    assert res.column(0) == (1.0, 3.0)
    assert res.column(1) == (-5.0, 2.0)
    assert res.count == 2


# ------------------------------------------------------ cost hooks
def test_cost_hooks_scale_sanely():
    sort = SampleSortOperator("electrons", 0)
    small = step_of(np.random.default_rng(0).random((10, 8)), scale=1.0)
    big = step_of(np.random.default_rng(0).random((10, 8)), scale=100.0)
    assert sort.map_flops(big) == pytest.approx(sort.map_flops(small) * 100)
    hist = HistogramOperator("electrons", 0)
    assert hist.map_flops(big) == pytest.approx(hist.map_flops(small) * 100)
    # histogram reduce cost must NOT scale with data volume
    counts = [np.zeros(hist.bins, dtype=np.int64)] * 3
    c1 = hist.reduce_flops(ctx_of(scale=1.0), "hist", counts)
    c2 = hist.reduce_flops(ctx_of(scale=1000.0), "hist", counts)
    assert c1 == c2
    # sort reduce memory traffic scales with ctx volume
    rows = [np.random.default_rng(1).random((10, 8))]
    m1 = sort.reduce_membytes(ctx_of(scale=1.0), 0, rows)
    m2 = sort.reduce_membytes(ctx_of(scale=50.0), 0, rows)
    assert m2 == pytest.approx(m1 * 50)
    # the cost of a bucket is its row count and bytes, summed over values
    buckets = [np.zeros((10, 8)), np.zeros((0, 8)), np.zeros((5, 8))]
    n = 15 * 3.0
    assert sort.reduce_flops(ctx_of(scale=3.0), 0, buckets) == 12.0 * n * np.log2(n)
    assert sort.reduce_membytes(ctx_of(scale=3.0), 0, buckets) == 100.0 * 15 * 64 * 3.0


def test_base_operator_reduce_and_partition_defaults():
    """An operator overriding only map() still reduces: the default
    hands the routed values through, on a reducer that is the same in
    every process for any tag type."""
    op = PreDatAOperator()
    ctx = ctx_of(nworkers=4)
    assert op.reduce(ctx, "k", [1, 2]) == [1, 2]
    assert [op.partition(ctx, t) for t in (0, 5, np.int64(6), True)] == [0, 1, 2, 1]
    assert op.partition(ctx, "hist") == 0 and op.partition(ctx, "mm") == 1
    assert op.partition(ctx, ("rho", 3)) == op.partition(ctx, ("rho", 3))


def test_sort_finalize_writes_its_bucket_through_the_filesystem():
    eng = Engine()
    fs = ParallelFileSystem(eng, interference=False)
    op = SampleSortOperator("electrons", key_column=0, filesystem=fs)
    bucket = np.random.default_rng(2).random((6, 8))
    ctx = ctx_of(rank=1, scale=10.0)
    proc = eng.process(op.finalize(ctx, {1: bucket}))
    assert eng.run_until_process(proc) is bucket
    assert fs.bytes_written == bucket.nbytes * 10.0 and eng.now > 0.0
