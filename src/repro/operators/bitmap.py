"""Bitmap indexing for range queries over particle attributes (§II.A).

GTC's second analysis task is a range query — find particles whose
coordinates fall in given ranges — accelerated with the bitmap-indexing
technique of Sinha & Winslett [42] so queries avoid scanning the whole
particle array.

:class:`BitmapIndex` is the standalone index structure: values are
binned; each bin gets one bitmap; bitmaps are compressed with
word-aligned-hybrid (WAH)-style run-length encoding, the stored format
and :attr:`BitmapIndex.nbytes`.  Range queries take fully-covered bins
whole and re-check only the two edge bins ("candidate check"), touching
a small fraction of the raw data.  They evaluate that on the rows' bin
codes, kept from the first query on, which gives the same mask as
OR-ing the decoded bitmaps without decoding a word.

:class:`BitmapIndexOperator` builds one index per staging rank over the
rows that rank receives, as part of the streaming pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.adios.group import OutputStep
from repro.core.operator import Emit, OperatorContext, PreDatAOperator
from repro.perf import kernels

__all__ = ["WAHBitmap", "BitmapIndex", "BitmapIndexOperator"]

_WORD = kernels.WAH_WORD_BITS  # payload bits per WAH word


class WAHBitmap:
    """Word-aligned-hybrid compressed bitmap.

    Stored as an array of words: literal words carry 31 raw bits; fill
    words carry a run of identical 31-bit groups.  This mirrors the
    structure (not the exact bit layout) of WAH compression.
    """

    def __init__(self, words: np.ndarray, nbits: int):
        # words: (nwords, 3) int64 rows (is_fill, value, ngroups) — see
        # the WAH contract in repro.perf.kernels
        self._words = words
        self.nbits = nbits

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "WAHBitmap":
        mask = np.asarray(mask, dtype=bool)
        return cls(kernels.wah_encode(mask), mask.size)

    def to_mask(self) -> np.ndarray:
        """Decode back to a boolean mask of length ``nbits``."""
        return kernels.wah_decode(self._words, self.nbits)

    def __or__(self, other: "WAHBitmap") -> "WAHBitmap":
        if self.nbits != other.nbits:
            raise ValueError("bitmap length mismatch")
        # Simple decode-or-encode; the compressed representation is the
        # storage format, not the hot loop, in this reproduction.
        return WAHBitmap.from_mask(self.to_mask() | other.to_mask())

    def count(self) -> int:
        # Padding bits are always zero (from_mask pads with zeros), so a
        # straight popcount over the words is exact.
        """Number of set bits (popcount over the compressed words)."""
        return kernels.wah_count(self._words)

    @property
    def nwords(self) -> int:
        return len(self._words)

    @property
    def nbytes(self) -> int:
        return 4 * self.nwords


@dataclass
class RangeQueryResult:
    """Result of a :meth:`BitmapIndex.query`."""

    mask: np.ndarray  # boolean row mask
    rows_checked: int  # raw rows re-examined

    @property
    def nrows(self) -> int:
        return int(self.mask.sum())


class BitmapIndex:
    """Binned bitmap index over one value column."""

    def __init__(self, values: np.ndarray, bins: int = 64, edges=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("index expects a 1-D value array")
        if bins < 1:
            raise ValueError("bins must be >= 1")
        self.values = values
        if edges is None:
            lo = values.min() if values.size else 0.0
            hi = values.max() if values.size else 1.0
            if lo == hi:
                hi = lo + 1.0
            edges = np.linspace(lo, hi, bins + 1)
        self.edges = np.asarray(edges, dtype=float)
        self.bins = len(self.edges) - 1
        codes = self._bin_of(values)
        self.bitmaps = [
            WAHBitmap.from_mask(codes == b) for b in range(self.bins)
        ]
        self._codes: np.ndarray | None = None

    def _bin_of(self, values):
        """Bin of each value; out-of-range values clip to the end bins."""
        return np.clip(
            np.searchsorted(self.edges, values, side="right") - 1, 0, self.bins - 1
        )

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self.bitmaps)

    @property
    def codes(self) -> np.ndarray:
        """Read-only bin code per row, in the narrowest unsigned dtype.

        Built at the first query, not in ``__init__``: an index nobody
        queries holds only its WAH words.
        """
        if self._codes is None:
            codes = self._bin_of(self.values).astype(np.min_scalar_type(self.bins - 1))
            codes.flags.writeable = False
            self._codes = codes
        return self._codes

    def query(self, lo: float, hi: float) -> RangeQueryResult:
        """Rows with ``lo <= value <= hi``.

        Reads bin codes, not bitmaps: a row of a fully-covered interior
        bin matches outright, a row of an edge bin is a candidate checked
        against its raw value.  The same mask and ``rows_checked`` as
        OR-ing the decoded WAH bitmaps of those bins.
        """
        if hi < lo:
            raise ValueError("query range inverted")
        if self.values.size == 0:
            return RangeQueryResult(np.zeros(0, dtype=bool), 0)
        first, last = (int(b) for b in self._bin_of(np.array((lo, hi))))
        codes, vals = self.codes, self.values
        cand = (codes == first) | (codes == last)
        mask = ((codes > first) & (codes < last)) | (cand & (vals >= lo) & (vals <= hi))
        return RangeQueryResult(mask, int(np.count_nonzero(cand)))


class BitmapIndexOperator(PreDatAOperator):
    """Builds a per-staging-rank bitmap index over one attribute.

    Rows stay where Map put them (tagged by producing rank so no data
    actually crosses the shuffle); each reducer indexes its share.
    Finalize returns the :class:`BitmapIndex`, ready to serve queries.
    """

    def __init__(
        self,
        var: str,
        column: int,
        bins: int = 64,
    ):
        if bins < 1:
            raise ValueError("bins must be >= 1")
        self.var = var
        self.column = column
        self.bins = bins
        self.name = f"bitmap:{var}[{column}]"

    # global edges via pass 1, so every rank's index is aligned
    def partial_calculate(self, step: OutputStep) -> Any:
        col = np.atleast_2d(step.values[self.var])[:, self.column]
        if col.size == 0:
            return None
        return (float(col.min()), float(col.max()))

    def partial_flops(self, step: OutputStep) -> float:
        return 2.0 * self._n_logical(step)

    def aggregate(self, partials: list[Any]) -> Any:
        partials = [p for p in partials if p is not None]
        if not partials:
            return None
        lo = min(p[0] for p in partials)
        hi = max(p[1] for p in partials)
        if lo == hi:
            hi = lo + 1.0
        return np.linspace(lo, hi, self.bins + 1)

    def map(self, ctx: OperatorContext, step: OutputStep) -> Iterable[Emit]:
        col = np.atleast_2d(step.values[self.var])[:, self.column]
        return [Emit(ctx.rank, np.asarray(col, dtype=float))]

    def map_flops(self, step: OutputStep) -> float:
        return 6.0 * self._n_logical(step)

    def partition(self, ctx: OperatorContext, tag: Any) -> int:
        return int(tag)  # stay local

    def reduce(self, ctx: OperatorContext, tag: Any, values: list[Any]) -> Any:
        return np.concatenate(values) if values else np.empty(0)

    def finalize(self, ctx: OperatorContext, reduced: dict):
        """Build this rank's index (empty-but-valid on an all-empty step,
        where no global edges were aggregated and ``self.bins`` applies)."""
        values = reduced.get(ctx.rank)
        if values is None:
            values = np.empty(0)
        edges = ctx.aggregated
        return BitmapIndex(values, bins=self.bins, edges=edges)

    def logical_fraction_shuffled(self) -> float:
        return 0.0

    def _n_logical(self, step: OutputStep) -> float:
        return np.atleast_2d(step.values[self.var]).shape[0] * step.volume_scale
