"""Hot-path operator kernels: one numpy body each, beside its reference.

The public functions (:func:`histogram1d`, :func:`histogram2d`,
:func:`wah_encode`, :func:`wah_decode`, :func:`wah_count`,
:func:`select_splitters`, :func:`partition_rows`, :func:`group_rows`,
:func:`stable_order`, :func:`column_minmax`, :func:`paste_pieces`) are
what the operators in :mod:`repro.operators` call.  Each sits below a
straightforward reference body (per element, or the plain numpy call
it must equal) — slow, obviously correct, never run by the pipeline —
collected in :data:`NAIVE` for the property tests, the flag matrix and
``perf kernels`` to compare against.

Contracts (shared by both bodies — property-tested bit-for-bit):

- histogram kernels take *strictly increasing* edge arrays; values
  outside ``[edges[0], edges[-1]]`` and NaNs are dropped, the last bin
  is right-inclusive.  This matches ``np.histogram``/``np.histogram2d``
  exactly.  ``histogram2d`` raises ``ValueError`` when ``x`` and ``y``
  differ in length (a length-1 axis does not broadcast).
- WAH words are the rows of one ``(nwords, 3)`` int64 array,
  ``(is_fill, value, ngroups)``: ``(0, payload, 1)`` for a literal
  31-bit group, ``(1, bit, ngroups)`` for a run of all-*bit* groups,
  adjacent equal fills merged maximally.  The empty mask encodes to
  shape ``(0, 3)``.
- ``select_splitters`` reproduces
  ``np.unique(np.quantile(pool, linspace-cuts))`` including numpy's
  linear-interpolation rounding and NaN collapsing.
- ``partition_rows`` is ``searchsorted(splitters, keys, side="right")``.
- ``group_rows`` yields ``(bucket, rows)`` pairs in ascending bucket
  order with rows in their original order.
- ``stable_order`` is ``np.argsort(keys, kind="stable")`` of a 1-D key
  array: equal keys keep their original order, where NaN equals NaN
  (all sorted last) and ``0.0`` equals ``-0.0``, as numpy compares
  them.  Needs ``len(keys) ** 2`` to fit an ``intp``.
- ``column_minmax`` is ``(data.min(axis=0), data.max(axis=0))`` of an
  ``(n, k)`` array, same dtype, same error on ``n == 0``.  Values are
  identical; only what a different fold order can show differs — which
  of ``0.0``/``-0.0`` represents a zero extremum, and the payload bits
  of a NaN (a NaN anywhere in a column still makes both results NaN).
- ``paste_pieces`` pastes ``(offsets, piece)`` blocks, in order, into
  a zeroed box at a given origin and returns it with the mask of
  written cells; a later piece wins a cell.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Callable, Optional, Sequence

import numpy as np

__all__ = [
    "histogram1d",
    "histogram2d",
    "wah_encode",
    "wah_decode",
    "wah_count",
    "select_splitters",
    "partition_rows",
    "group_rows",
    "stable_order",
    "column_minmax",
    "paste_pieces",
    "NAIVE",
    "WAH_WORD_BITS",
]

#: payload bits per WAH word (31, as in word-aligned-hybrid coding)
WAH_WORD_BITS = 31
_FULL = (1 << WAH_WORD_BITS) - 1


# =====================================================================
# 1-D histogram
# =====================================================================

def _histogram1d_naive(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    edges_l = np.asarray(edges, dtype=float).tolist()
    counts = [0] * (len(edges_l) - 1)
    lo, hi = edges_l[0], edges_l[-1]
    last = len(counts) - 1
    for v in values.ravel().tolist():
        if not (lo <= v <= hi):  # NaN fails both comparisons
            continue
        if v == hi:
            counts[last] += 1
        else:
            counts[bisect_right(edges_l, v) - 1] += 1
    return np.asarray(counts, dtype=np.int64)


def histogram1d(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """int64 counts of *values* over strictly increasing *edges*."""
    counts, _ = np.histogram(np.asarray(values, dtype=float), bins=edges)
    return counts.astype(np.int64)


# =====================================================================
# 2-D histogram
# =====================================================================

def _bin_of(v: float, edges_l: list) -> Optional[int]:
    lo, hi = edges_l[0], edges_l[-1]
    if not (lo <= v <= hi):
        return None
    if v == hi:
        return len(edges_l) - 2
    return bisect_right(edges_l, v) - 1


def _histogram2d_naive(
    x: np.ndarray, y: np.ndarray, ex: np.ndarray, ey: np.ndarray
) -> np.ndarray:
    ex_l = np.asarray(ex, dtype=float).tolist()
    ey_l = np.asarray(ey, dtype=float).tolist()
    counts = np.zeros((len(ex_l) - 1, len(ey_l) - 1), dtype=np.int64)
    xs = np.asarray(x, dtype=float).ravel().tolist()
    ys = np.asarray(y, dtype=float).ravel().tolist()
    for v, w in zip(xs, ys):
        bx = _bin_of(v, ex_l)
        if bx is None:
            continue
        by = _bin_of(w, ey_l)
        if by is None:
            continue
        counts[bx, by] += 1
    return counts


def _bin_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each value, outside ``[0, nbins)`` for one to drop (below
    the first edge, above the last, or NaN, which sorts past the end)."""
    idx = np.searchsorted(edges, values, side="right") - 1
    idx[values == edges[-1]] = edges.size - 2  # the last bin is right-inclusive
    return idx


def histogram2d(
    x: np.ndarray, y: np.ndarray, ex: np.ndarray, ey: np.ndarray
) -> np.ndarray:
    """int64 joint counts of ``(x, y)`` over edge grids ``(ex, ey)``.

    One ``searchsorted`` per axis and one ``bincount`` over the joint
    bin index: the only full-size allocation is the result itself, where
    ``np.histogram2d`` builds a float matrix and casts it.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError(f"x and y must have the same length ({x.size} != {y.size})")
    ex = np.asarray(ex, dtype=float)
    ey = np.asarray(ey, dtype=float)
    nx, ny = ex.size - 1, ey.size - 1
    ix = _bin_index(x, ex)
    iy = _bin_index(y, ey)
    keep = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    flat = np.bincount(ix[keep] * ny + iy[keep], minlength=nx * ny)
    return flat.astype(np.int64, copy=False).reshape(nx, ny)


# =====================================================================
# WAH bitmap run-length coding
# =====================================================================

def _payloads(mask: np.ndarray) -> np.ndarray:
    """31-bit group payloads of a boolean mask (zero-padded)."""
    mask = np.asarray(mask, dtype=bool).ravel()
    pad = (-mask.size) % WAH_WORD_BITS
    padded = np.concatenate([mask, np.zeros(pad, dtype=bool)])
    groups = padded.reshape(-1, WAH_WORD_BITS)
    weights = (1 << np.arange(WAH_WORD_BITS, dtype=np.int64))[::-1]
    return groups @ weights


def _wah_encode_naive(mask: np.ndarray) -> np.ndarray:
    words: list[list[int]] = []
    for p in _payloads(mask):
        p = int(p)
        if p == 0 or p == _FULL:
            bit = 1 if p == _FULL else 0
            if words and words[-1][0] and words[-1][1] == bit:
                words[-1][2] += 1
            else:
                words.append([1, bit, 1])
        else:
            words.append([0, p, 1])
    return np.asarray(words, dtype=np.int64).reshape(-1, 3)


def _payloads_packed(mask: np.ndarray) -> np.ndarray:
    """31-bit group payloads via ``np.packbits`` (identical values to
    :func:`_payloads`, an order of magnitude faster on large masks)."""
    mask = np.asarray(mask, dtype=bool).ravel()
    ngroups = (mask.size + WAH_WORD_BITS - 1) // WAH_WORD_BITS
    if ngroups == 0:
        return np.empty(0, dtype=np.int64)
    bits = np.zeros((ngroups, 32), dtype=bool)
    padded = np.zeros(ngroups * WAH_WORD_BITS, dtype=bool)
    padded[: mask.size] = mask
    bits[:, :WAH_WORD_BITS] = padded.reshape(ngroups, WAH_WORD_BITS)
    packed = np.packbits(bits, axis=1).view(">u4").ravel()
    # bit i of the group carries weight 2^(30-i); the packed 32-bit word
    # weighted it 2^(31-i), i.e. exactly payload << 1
    return (packed >> 1).astype(np.int64)


def wah_encode(mask: np.ndarray) -> np.ndarray:
    """``(nwords, 3)`` WAH word array of a boolean mask."""
    payloads = _payloads_packed(mask)
    n = payloads.size
    if n == 0:
        return np.empty((0, 3), dtype=np.int64)
    is_fill = (payloads == 0) | (payloads == _FULL)
    fill_bit = payloads == _FULL
    # run boundaries: a group starts a new word run unless it continues
    # a fill run of the same bit value (literals never merge)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = ~(is_fill[1:] & is_fill[:-1] & (fill_bit[1:] == fill_bit[:-1]))
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    run_fill = is_fill[starts]
    words = np.empty((starts.size, 3), dtype=np.int64)
    words[:, 0] = run_fill
    words[:, 1] = np.where(run_fill, fill_bit[starts], payloads[starts])
    words[:, 2] = np.where(run_fill, ends - starts, 1)
    return words


def _wah_decode_naive(words: np.ndarray, nbits: int) -> np.ndarray:
    ngroups = (nbits + WAH_WORD_BITS - 1) // WAH_WORD_BITS
    out = np.zeros(ngroups * WAH_WORD_BITS, dtype=bool)
    pos = 0
    for is_fill, value, count in np.asarray(words).tolist():
        if is_fill:
            if value:
                out[pos : pos + count * WAH_WORD_BITS] = True
            pos += count * WAH_WORD_BITS
        else:
            bits = [(value >> (WAH_WORD_BITS - 1 - i)) & 1 for i in range(WAH_WORD_BITS)]
            out[pos : pos + WAH_WORD_BITS] = np.array(bits, dtype=bool)
            pos += WAH_WORD_BITS
    return out[:nbits]


def wah_decode(words: np.ndarray, nbits: int) -> np.ndarray:
    """Boolean mask of length *nbits* from a WAH word array."""
    ngroups = (nbits + WAH_WORD_BITS - 1) // WAH_WORD_BITS
    if len(words) == 0 or ngroups == 0:
        return np.zeros(nbits, dtype=bool)
    is_fill = words[:, 0] != 0
    vals_arr, counts_arr = words[:, 1], words[:, 2]
    starts = np.concatenate([[0], np.cumsum(counts_arr)[:-1]])
    # per-group payloads: literals scatter, one-fill runs flood via a
    # +1/-1 delta array (run-length to membership without any loop)
    group_pay = np.zeros(ngroups, dtype=np.int64)
    lit = ~is_fill
    group_pay[starts[lit]] = vals_arr[lit]
    ones = is_fill & (vals_arr != 0)
    if ones.any():
        delta = np.zeros(ngroups + 1, dtype=np.int64)
        np.add.at(delta, starts[ones], 1)
        np.add.at(delta, starts[ones] + counts_arr[ones], -1)
        group_pay[np.cumsum(delta[:-1]) > 0] = _FULL
    raw = (group_pay.astype(np.uint32) << 1).astype(">u4").view(np.uint8)
    bits = np.unpackbits(raw).reshape(ngroups, 32)[:, :WAH_WORD_BITS]
    return bits.reshape(-1).astype(bool)[:nbits]


def _wah_count_naive(words: np.ndarray) -> int:
    total = 0
    for is_fill, value, count in np.asarray(words).tolist():
        if is_fill:
            total += value * count * WAH_WORD_BITS
        else:
            total += bin(value).count("1")
    return total


def wah_count(words: np.ndarray) -> int:
    """Popcount over a WAH word array (padding bits are zero)."""
    if len(words) == 0:
        return 0
    is_fill = words[:, 0] != 0
    vals_arr, counts_arr = words[:, 1], words[:, 2]
    fill_total = int((vals_arr * counts_arr)[is_fill].sum()) * WAH_WORD_BITS
    lits = vals_arr[~is_fill]
    if lits.size == 0:
        return fill_total
    raw = lits.astype(">u4").view(np.uint8)
    return fill_total + int(np.unpackbits(raw).sum())


# =====================================================================
# Sample-sort splitter selection
# =====================================================================

def _lerp(a: float, b: float, t: float) -> float:
    """numpy's quantile interpolation, bit for bit (incl. the t>=0.5 branch)."""
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


def _select_splitters_naive(pool: np.ndarray, nworkers: int) -> np.ndarray:
    if nworkers <= 1:
        return np.array([])
    arr = np.sort(np.asarray(pool, dtype=float).ravel()).tolist()
    n = len(arr)
    if any(math.isnan(v) for v in arr):
        # np.quantile: one NaN poisons every quantile; np.unique then
        # collapses the all-NaN cut list to a single NaN
        return np.asarray([math.nan])
    qs = np.linspace(0, 1, nworkers + 1)[1:-1].tolist()
    cuts = []
    for q in qs:
        virtual = q * (n - 1)
        prev = math.floor(virtual)
        gamma = virtual - prev
        lo = arr[int(prev)]
        hi = arr[min(int(prev) + 1, n - 1)]
        cuts.append(_lerp(lo, hi, gamma))
    # np.unique: ascending, exact duplicates dropped, NaNs collapse to one
    finite = sorted(c for c in cuts if not math.isnan(c))
    uniq: list[float] = []
    for c in finite:
        if not uniq or c != uniq[-1]:
            uniq.append(c)
    if len(finite) != len(cuts):
        uniq.append(math.nan)
    return np.asarray(uniq, dtype=float)


def select_splitters(pool: np.ndarray, nworkers: int) -> np.ndarray:
    """Strictly increasing sample-sort splitters (``nworkers - 1`` cuts,
    deduplicated) from a sample pool."""
    if nworkers <= 1:
        return np.array([])
    qs = np.linspace(0, 1, nworkers + 1)[1:-1]
    return np.unique(np.quantile(np.asarray(pool, dtype=float), qs))


# =====================================================================
# Sample-sort row partitioning / bucket grouping
# =====================================================================

def _partition_rows_naive(keys: np.ndarray, splitters: np.ndarray) -> np.ndarray:
    spl = np.asarray(splitters).tolist()
    return np.asarray(
        [bisect_right(spl, k) for k in np.asarray(keys).ravel().tolist()],
        dtype=np.intp,
    )


def partition_rows(keys: np.ndarray, splitters: np.ndarray) -> np.ndarray:
    """Bucket index per key: ``searchsorted(splitters, keys, "right")``."""
    return np.searchsorted(splitters, keys, side="right")


def _group_rows_naive(data: np.ndarray, buckets: np.ndarray) -> list:
    out = []
    for b in np.unique(buckets):
        out.append((int(b), data[buckets == b]))
    return out


def group_rows(data: np.ndarray, buckets: np.ndarray) -> list:
    """``(bucket, rows)`` pairs, ascending bucket, original row order."""
    buckets = np.asarray(buckets)
    if buckets.size == 0:
        return []
    if buckets.dtype.kind in "iu" and 0 <= buckets.min() and buckets.max() <= 0xFFFF:
        # numpy's stable sort of 16-bit integers is a radix sort
        buckets = buckets.astype(np.uint16)
    order = np.argsort(buckets, kind="stable")
    sorted_buckets = buckets[order]
    rows = np.take(data, order, axis=0)
    uniq, starts = np.unique(sorted_buckets, return_index=True)
    bounds = np.append(starts[1:], sorted_buckets.size)
    return [
        (int(b), rows[s:e])
        for b, s, e in zip(uniq.tolist(), starts.tolist(), bounds.tolist())
    ]


# =====================================================================
# Stable ordering / per-column extrema
# =====================================================================

def _stable_order_naive(keys: np.ndarray) -> np.ndarray:
    return np.argsort(keys, kind="stable")


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of a 1-D array, from two
    unstable (SIMD) sorts."""
    keys = np.asarray(keys)
    n = keys.size
    if n == 0:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(keys)
    ranked = keys[order]
    # number the runs of equal sorted keys; NaNs (all sorted last) are
    # one run, as the stable sort treats them
    new_run = np.empty(n, dtype=bool)
    new_run[0] = False
    np.not_equal(ranked[1:], ranked[:-1], out=new_run[1:])
    if ranked.dtype.kind in "fc":
        nan = np.isnan(ranked)
        new_run[1:] &= ~(nan[1:] & nan[:-1])
    # sorting (run, original index) pairs packed into one integer
    # leaves the runs in place and orders each by original index
    packed = np.cumsum(new_run, dtype=np.intp)
    packed *= n
    packed += order
    packed.sort()
    packed %= n
    return packed


def _column_minmax_naive(data: np.ndarray) -> tuple:
    data = np.asarray(data)
    return data.min(axis=0), data.max(axis=0)


#: rows folded per block by :func:`column_minmax`
_MINMAX_BLOCK = 64


def column_minmax(data: np.ndarray) -> tuple:
    """``(data.min(axis=0), data.max(axis=0))`` of an ``(n, k)`` array."""
    lo = hi = data = np.asarray(data)
    head = len(data) - len(data) % _MINMAX_BLOCK  # rows in whole blocks
    if data.ndim == 2 and data.flags.c_contiguous and data[:head].size:
        # fold (n/64, 64*k) blocks first: the inner loop then runs over
        # 64*k contiguous elements instead of k
        k = data.shape[1]
        blocks = data[:head].reshape(-1, _MINMAX_BLOCK * k)
        lo = np.concatenate([blocks.min(axis=0).reshape(-1, k), data[head:]])
        hi = np.concatenate([blocks.max(axis=0).reshape(-1, k), data[head:]])
    return lo.min(axis=0), hi.max(axis=0)


# =====================================================================
# Box assembly from offset-tagged pieces
# =====================================================================

def _paste_pieces_naive(shape: tuple, dtype: Any, pieces: Sequence, origin: tuple) -> tuple:
    out = np.zeros(shape, dtype=dtype)
    filled = np.zeros(shape, dtype=bool)
    for offsets, piece in pieces:
        piece = np.asarray(piece)
        for idx in np.ndindex(piece.shape):
            dst = tuple(o - b + i for o, b, i in zip(offsets, origin, idx))
            out[dst] = piece[idx]
            filled[dst] = True
    return out, filled


def paste_pieces(shape: tuple, dtype: Any, pieces: Sequence, origin: tuple) -> tuple:
    """Paste ``(offsets, piece)`` blocks, in order, into a zeroed box.

    The box spans ``[origin, origin + shape)`` in the pieces' global
    coordinates, and each piece must lie inside it; where pieces
    overlap, the later one wins.  Returns ``(box, filled)``, the mask of
    cells some piece wrote.
    """
    out = np.zeros(shape, dtype=dtype)
    filled = np.zeros(shape, dtype=bool)
    for offsets, piece in pieces:
        sel = tuple(
            slice(o - b, o - b + d) for o, b, d in zip(offsets, origin, piece.shape)
        )
        out[sel] = piece
        filled[sel] = True
    return out, filled


#: reference body per kernel — what the production bodies above are
#: tested (and ``perf kernels`` timed) against; nothing in the pipeline
#: calls these
NAIVE: dict[str, Callable] = {
    "histogram1d": _histogram1d_naive,
    "histogram2d": _histogram2d_naive,
    "wah_encode": _wah_encode_naive,
    "wah_decode": _wah_decode_naive,
    "wah_count": _wah_count_naive,
    "select_splitters": _select_splitters_naive,
    "partition_rows": _partition_rows_naive,
    "group_rows": _group_rows_naive,
    "stable_order": _stable_order_naive,
    "column_minmax": _column_minmax_naive,
    "paste_pieces": _paste_pieces_naive,
}
