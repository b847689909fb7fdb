"""Property tests: every kernel agrees with its reference bit for bit.

Hypothesis drives every kernel through the adversarial inputs a
hand-written table misses — empty chunks, single-bin histograms,
NaN/inf fields, duplicate sort keys, duplicate splitters — and asserts
*exact* agreement between its ``kernels.NAIVE`` reference body and the
production body: same dtype, same shape, same bits.  The deterministic tests at the bottom pin the
named edge cases and non-contiguous (sliced, reversed, Fortran-order)
inputs.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import kernels as K

FAST = settings(max_examples=60, deadline=None)


def both(name, *args):
    """Run kernel *name*'s reference and production bodies on the same arguments."""
    return K.NAIVE[name](*args), getattr(K, name)(*args)


def assert_same_array(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, (a.dtype, b.dtype)
    assert a.shape == b.shape, (a.shape, b.shape)
    np.testing.assert_array_equal(a, b)


def assert_same_words(wn, wv):
    """Two WAH word arrays: ``(nwords, 3)`` int64, identical row for row."""
    for words in (wn, wv):
        assert isinstance(words, np.ndarray)
        assert words.dtype == np.int64 and words.shape == (len(words), 3)
    np.testing.assert_array_equal(wn, wv)


def assert_same_groups(gn, gv):
    assert len(gn) == len(gv)
    for (bn, rn), (bv, rv) in zip(gn, gv):
        assert bn == bv
        assert_same_array(rn, rv)


# strategies ----------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
anyfloat = st.floats(width=64)  # NaN and +/-inf included

fields = st.lists(anyfloat, max_size=150).map(lambda xs: np.asarray(xs, dtype=float))

# strictly increasing edges; min_size=2 keeps the single-bin case live
edges = st.lists(finite, min_size=2, max_size=40, unique=True).map(
    lambda xs: np.sort(np.asarray(xs, dtype=float))
)

# up to ~300 edges per axis: the 2-D map regime bins a few dozen points
# into far more cells than it has points
wide_edges = st.lists(finite, min_size=2, max_size=300, unique=True).map(
    lambda xs: np.sort(np.asarray(xs, dtype=float))
)

masks = st.lists(st.booleans(), max_size=200).map(
    lambda xs: np.asarray(xs, dtype=bool)
)

# duplicate-heavy keys: a tiny value alphabet guarantees collisions
dup_keys = st.lists(
    st.sampled_from([-1.5, 0.0, 0.5, 0.5, 2.0, 2.0, 7.25]), max_size=120
).map(lambda xs: np.asarray(xs, dtype=float))

splitters = st.lists(finite, max_size=12).map(
    lambda xs: np.sort(np.asarray(xs, dtype=float))
)


@st.composite
def paste_cases(draw):
    """A box at a non-zero origin on every axis and up to five pieces
    inside it, overlapping freely, each with values no other piece has
    (so the in-order rule shows wherever two overlap)."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    origin = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    pieces = []
    for i in range(draw(st.integers(0, 5))):
        pshape = tuple(draw(st.integers(1, shape[a])) for a in range(ndim))
        offsets = tuple(
            origin[a] + draw(st.integers(0, shape[a] - pshape[a])) for a in range(ndim)
        )
        piece = np.arange(int(np.prod(pshape)), dtype=float).reshape(pshape) + 1000 * i
        pieces.append((offsets, piece))
    return shape, pieces, origin


# histogram kernels ---------------------------------------------------

@FAST
@given(values=fields, e=edges)
def test_histogram1d_variants_agree(values, e):
    assert_same_array(*both("histogram1d", values, e))


@FAST
@given(pts=st.lists(st.tuples(anyfloat, anyfloat), max_size=120), ex=wide_edges, ey=wide_edges)
def test_histogram2d_variants_agree(pts, ex, ey):
    x = np.asarray([p[0] for p in pts], dtype=float)
    y = np.asarray([p[1] for p in pts], dtype=float)
    assert_same_array(*both("histogram2d", x, y, ex, ey))


# WAH bitmap kernels --------------------------------------------------

@FAST
@given(mask=masks)
def test_wah_encode_variants_agree(mask):
    assert_same_words(*both("wah_encode", mask))


@FAST
@given(mask=masks)
def test_wah_roundtrip_and_count(mask):
    words = K.wah_encode(mask)
    dn, dv = both("wah_decode", words, mask.size)
    assert_same_array(dn, mask)
    assert_same_array(dn, dv)
    cn, cv = both("wah_count", words)
    assert cn == cv == int(mask.sum())


# sample-sort kernels -------------------------------------------------

@FAST
@given(pool=st.lists(anyfloat, min_size=1, max_size=100), nworkers=st.integers(1, 9))
def test_select_splitters_variants_agree(pool, nworkers):
    pool = np.asarray(pool, dtype=float)
    assert_same_array(*both("select_splitters", pool, nworkers))


@FAST
@given(keys=dup_keys, spl=splitters)
def test_partition_rows_variants_agree(keys, spl):
    n, v = both("partition_rows", keys, spl)
    assert_same_array(np.asarray(n, dtype=np.intp), np.asarray(v, dtype=np.intp))


@FAST
@given(keys=dup_keys, spl=splitters)
def test_group_rows_variants_agree(keys, spl):
    data = np.stack([keys, np.arange(keys.size, dtype=float)], axis=1)
    buckets = K.partition_rows(keys, spl)
    assert_same_groups(*both("group_rows", data, buckets))


# stable order / column extrema ----------------------------------------

# keys where a stable sort has work to do: few distinct values, NaN runs,
# both zeros, both infinities
tied_keys = st.lists(
    st.sampled_from([np.nan, -np.inf, -1.5, -0.0, 0.0, 0.5, 0.5, np.inf]),
    max_size=200,
).map(lambda xs: np.asarray(xs, dtype=float))


@FAST
@given(keys=st.one_of(tied_keys, fields))
def test_stable_order_variants_agree(keys):
    assert_same_array(*both("stable_order", keys))


@FAST
@given(
    keys=st.lists(st.integers(-3, 3), max_size=200),
    dtype=st.sampled_from([np.int64, np.float32, np.uint8]),
)
def test_stable_order_other_key_dtypes_agree(keys, dtype):
    assert_same_array(*both("stable_order", np.asarray(keys).astype(dtype)))


@FAST
@given(
    n=st.integers(1, 200),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    nan_col=st.booleans(),
)
def test_column_minmax_variants_agree(n, k, seed, nan_col):
    rng = np.random.default_rng(seed)
    data = rng.integers(-4, 5, size=(n, k)).astype(float)  # ties, no signed zeros
    if nan_col:
        data[rng.integers(n), rng.integers(k)] = np.nan
    (lo_n, hi_n), (lo_v, hi_v) = both("column_minmax", data)
    assert_same_array(lo_n, lo_v)
    assert_same_array(hi_n, hi_v)


# array-merge kernel --------------------------------------------------

@FAST
@given(case=paste_cases())
def test_paste_pieces_variants_agree(case):
    shape, pieces, origin = case
    (bn, fn), (bv, fv) = both("paste_pieces", shape, np.float64, pieces, origin)
    assert_same_array(bn, bv)
    assert_same_array(fn, fv)


def test_paste_pieces_later_piece_wins():
    first = ((2, 3), np.ones((2, 2)))
    second = ((3, 3), np.full((1, 2), 7.0))
    for body in (K.NAIVE["paste_pieces"], K.paste_pieces):
        box, filled = body((3, 3), np.float64, [first, second], (2, 2))
        assert box.tolist() == [[0, 1, 1], [0, 7, 7], [0, 0, 0]]
        assert filled.tolist() == [[False, True, True], [False, True, True], [False] * 3]


# named edge cases ----------------------------------------------------

def test_empty_chunks_agree_everywhere():
    empty = np.asarray([], dtype=float)
    e = np.asarray([0.0, 1.0])
    assert_same_array(*both("histogram1d", empty, e))
    assert_same_array(*both("histogram2d", empty, empty, e, e))
    no_words, also_none = both("wah_encode", np.asarray([], dtype=bool))
    assert_same_words(no_words, also_none)
    assert no_words.shape == (0, 3)
    dn, dv = both("wah_decode", no_words, 0)
    assert dn.size == dv.size == 0
    assert both("wah_count", no_words) == (0, 0)
    assert_same_array(*both("partition_rows", empty, np.asarray([1.0])))
    assert both(
        "group_rows", empty.reshape(0, 2), np.asarray([], dtype=np.intp)
    ) == ([], [])


def test_stable_order_named_cases():
    for keys in (
        np.asarray([], dtype=float),
        np.asarray([3.0]),
        np.asarray([np.nan, 1.0, np.nan, np.nan, 1.0, np.nan]),  # runs of NaN
        np.asarray([0.0, -0.0, 0.0, -0.0, -1.0, 0.0]),  # 0.0 == -0.0: one run
        np.asarray([np.inf, -np.inf, np.inf, 0.0, -np.inf, np.nan, np.inf]),
        np.zeros(1000),  # one run end to end
        np.asarray([2, 1, 2, 1, 1], dtype=np.int64),
        np.asarray([2, 1, 2, 1, 1], dtype=np.float32),
    ):
        naive, fast = both("stable_order", keys)
        assert_same_array(naive, fast)
        assert fast.dtype == np.intp
    # a strided column of a row-major table, cross-rank duplicate labels
    rng = np.random.default_rng(3)
    table = rng.normal(size=(5000, 8))
    table[:, 0] = rng.integers(0, 600, size=5000)
    column = table[:, 0]
    assert not column.flags["C_CONTIGUOUS"]
    assert_same_array(*both("stable_order", column))
    assert_same_array(*both("stable_order", column[::-1]))


def test_column_minmax_named_cases():
    rng = np.random.default_rng(5)
    for shape in ((1, 3), (63, 8), (64, 8), (65, 8), (1000, 1), (1000, 8), (129, 5)):
        data = rng.normal(size=shape)
        (lo_n, hi_n), (lo_v, hi_v) = both("column_minmax", data)
        assert_same_array(lo_n, lo_v)
        assert_same_array(hi_n, hi_v)
    data = rng.normal(size=(500, 4))
    data[137, 2] = np.nan  # one NaN poisons its column, in both bodies
    (lo_n, hi_n), (lo_v, hi_v) = both("column_minmax", data)
    assert_same_array(lo_n, lo_v)
    assert_same_array(hi_n, hi_v)
    assert np.isnan(lo_v[2]) and np.isnan(hi_v[2]) and not np.isnan(lo_v[[0, 1, 3]]).any()
    for view in (data[::2], np.asfortranarray(data), data.astype(np.float32), data[:, 1:3]):
        (lo_n, hi_n), (lo_v, hi_v) = both("column_minmax", view)
        assert_same_array(lo_n, lo_v)
        assert_same_array(hi_n, hi_v)
    for body in (K.NAIVE["column_minmax"], K.column_minmax):  # same error on empty
        with pytest.raises(ValueError, match="zero-size array"):
            body(np.empty((0, 8)))


def test_group_rows_wide_bucket_ids_take_the_same_answer():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(70_000, 2))
    many = rng.permutation(70_000)  # >= 65 536 distinct buckets, one row each
    groups = K.group_rows(data, many)  # (the reference body is quadratic here)
    assert [b for b, _rows in groups] == list(range(70_000))
    assert all(rows.shape == (1, 2) for _b, rows in groups)
    assert_same_array(
        np.concatenate([rows for _b, rows in groups]),
        data[np.argsort(many, kind="stable")],
    )
    signed = rng.integers(-3, 4, size=500)  # negative ids
    assert_same_groups(*both("group_rows", data[:500], signed))
    edge = np.asarray([0xFFFF, 0, 0x10000, 0xFF, 0x100, 0xFFFF])  # either side of 16 bits
    assert_same_groups(*both("group_rows", data[:6], edge))
    assert_same_groups(*both("group_rows", data[:5], edge[[0, 1, 3, 4, 5]]))


def test_single_bin_histogram_right_inclusive_edge():
    values = np.asarray([0.0, 0.5, 1.0, 1.0, 1.5, np.nan, np.inf])
    e = np.asarray([0.0, 1.0])  # one bin; 1.0 lands in it (right-inclusive)
    n, v = both("histogram1d", values, e)
    assert_same_array(n, v)
    assert n.tolist() == [4]


def _gtc_map_chunk(seed):
    """One GTC map call: 64 particles binned on two attributes over the
    257-edge global min-max axes of a 256 x 256 histogram."""
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=64), rng.uniform(-3.0, 5.0, size=64)
    return x, y, np.linspace(x.min(), x.max(), 257), np.linspace(y.min(), y.max(), 257)


def test_histogram2d_gtc_map_regime():
    for seed in range(4):
        x, y, ex, ey = _gtc_map_chunk(seed)
        naive, fast = both("histogram2d", x, y, ex, ey)
        assert_same_array(naive, fast)
        assert fast.shape == (256, 256) and fast.sum() == 64  # min and max included
    # every point on an edge: interior edges open a bin, the last closes one
    x, _, ex, _ = _gtc_map_chunk(9)
    on_edges = ex[np.arange(0, 257, 4)]
    naive, fast = both("histogram2d", on_edges, on_edges[::-1].copy(), ex, ex)
    assert_same_array(naive, fast)
    assert fast[255, 0] == 1 and fast[0, 255] == 1 and fast.sum() == on_edges.size


def test_histogram2d_edge_values():
    e = np.asarray([-1.0, 0.0, 1.0])
    cases = {
        "last edge": ([1.0, 1.0, 0.5], [1.0, -1.0, 1.0]),
        "-0.0 on a 0.0 edge": ([-0.0, 0.0, -0.0], [-0.0, -0.5, 0.0]),
        "infinities": ([np.inf, -np.inf, 0.5, np.inf], [0.5, 0.5, -np.inf, np.inf]),
        "nan": ([np.nan, 0.5, 0.5, np.nan], [0.5, np.nan, 0.5, np.nan]),
    }
    for x, y in cases.values():
        assert_same_array(*both("histogram2d", np.asarray(x), np.asarray(y), e, e))
    assert K.histogram2d(np.asarray([1.0]), np.asarray([1.0]), e, e).tolist() == [[0, 0], [0, 1]]
    zero_top = np.asarray([-1.0, 0.0])  # -0.0 equals the last edge
    assert K.histogram2d(np.asarray([-0.0]), np.asarray([-0.0]), zero_top, zero_top).tolist() == [[1]]
    assert K.histogram2d(np.asarray([-0.0]), np.asarray([0.5]), e, e).tolist() == [[0, 0], [0, 1]]


def test_histogram2d_rejects_unequal_lengths():
    x, y, ex, ey = _gtc_map_chunk(1)
    for a, b in ((x, y[:63]), (x[:1], y), (x, y[:1]), (x[:0], y[:1])):
        with pytest.raises(ValueError, match="same length"):
            K.histogram2d(a, b, ex, ey)


def test_histogram2d_allocates_only_its_result():
    x, y, ex, ey = _gtc_map_chunk(2)
    K.histogram2d(x, y, ex, ey)  # first call outside the measurement
    tracemalloc.start()
    try:
        counts = K.histogram2d(x, y, ex, ey)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.nbytes == 256 * 256 * 8
    assert peak <= 1.1 * counts.nbytes


def test_nan_inf_fields_agree():
    values = np.asarray(
        [np.nan, np.inf, -np.inf, 0.0, 1.0, -1.0, np.nan, 2.5, np.inf, -3.0]
    )
    e = np.asarray([-2.0, 0.0, 2.0])
    assert_same_array(*both("histogram1d", values, e))
    assert_same_array(*both("histogram2d", values, values[::-1].copy(), e, e))
    assert_same_array(*both("select_splitters", values, 4))
    assert_same_array(*both("partition_rows", values, np.asarray([-1.0, 1.0])))


def test_nan_poisoned_splitter_pool_collapses():
    pool = np.asarray([np.nan, 1.0, 2.0, np.nan])
    n, v = both("select_splitters", pool, 4)
    assert_same_array(n, v)
    assert n.size == 1 and np.isnan(n[0])


def test_duplicate_keys_on_duplicate_splitters():
    keys = np.asarray([0.5, 0.5, 0.5, 1.0, 1.0])
    spl = np.asarray([0.5, 0.5, 1.0])
    n, v = both("partition_rows", keys, spl)
    assert_same_array(np.asarray(n, dtype=np.intp), np.asarray(v, dtype=np.intp))
    assert list(v) == [2, 2, 2, 3, 3]  # side="right" of the last duplicate


def test_non_contiguous_inputs_agree():
    rng = np.random.default_rng(7)
    base = rng.normal(size=501)
    e = np.linspace(-3, 3, 11)
    for view in (base[::2], base[::-1], base[100:300][::3]):
        assert not view.flags["C_CONTIGUOUS"]
        assert_same_array(*both("histogram1d", view, e))
    mask = (base > 0)[::-1][:-7]
    assert not mask.flags["C_CONTIGUOUS"]
    naive, vec = both("wah_encode", mask)
    assert_same_words(naive, vec)
    assert_same_array(K.wah_decode(vec, mask.size), np.ascontiguousarray(mask))
    fdata = np.asfortranarray(rng.normal(size=(40, 3)))
    assert not fdata.flags["C_CONTIGUOUS"]
    buckets = K.partition_rows(fdata[:, 0], np.asarray([0.0]))
    assert_same_groups(*both("group_rows", fdata, buckets))

