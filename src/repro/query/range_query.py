"""Bitmap-indexed range queries over particle data (§II.A, task 2).

"The second task performs a range query to discover the particles
whose coordinates fall into certain ranges.  A bitmap indexing
technique [42] is used to avoid scanning the whole particle array,
and multiple array chunks are merged to speed up bulk loading."

:class:`RangeQueryEngine` owns the per-partition
:class:`~repro.operators.bitmap.BitmapIndex` objects built in the
staging area (one per staging rank, all sharing global bin edges) plus
the partition row blocks, and answers conjunctive multi-column range
queries.  The report counts rows actually examined (candidate checks
on edge bins only) versus the full-scan cost the index avoided, and
how many chunk loads were merged into bulk loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.operators.bitmap import BitmapIndex

__all__ = ["RangeQueryEngine", "RangeQueryReport"]


@dataclass
class RangeQueryReport:
    """Work accounting for one range query."""

    rows: np.ndarray  # the matching particle rows
    total_rows: int  # rows in the dataset
    rows_checked: int  # candidate rows examined against raw values
    partitions_touched: int
    partitions_skipped: int  # pruned entirely by the index
    bulk_loads: int  # merged chunk loads performed

    @property
    def selectivity(self) -> float:
        return len(self.rows) / self.total_rows if self.total_rows else 0.0

    @property
    def scan_avoided_fraction(self) -> float:
        """Fraction of the dataset never touched thanks to the index."""
        if self.total_rows == 0:
            return 0.0
        return 1.0 - self.rows_checked / self.total_rows


class RangeQueryEngine:
    """Conjunctive range queries over partitioned, indexed particles.

    Parameters
    ----------
    partitions: per-staging-rank row blocks (2-D arrays).
    indexed_columns: columns to build bitmap indexes on.
    bins: bins per index.
    edges: optional per-column global bin edges (aligned across
        partitions, as the staging pipeline's aggregation produces);
        computed from the data when omitted.
    """

    def __init__(
        self,
        partitions: Sequence[np.ndarray],
        indexed_columns: Sequence[int],
        *,
        bins: int = 64,
        edges: Optional[dict[int, np.ndarray]] = None,
    ):
        self.partitions = [
            np.atleast_2d(np.asarray(p)) for p in partitions if len(p)
        ]
        if not self.partitions:
            raise ValueError("need at least one non-empty partition")
        self.indexed_columns = tuple(indexed_columns)
        if not self.indexed_columns:
            raise ValueError("need at least one indexed column")
        self.total_rows = sum(p.shape[0] for p in self.partitions)
        if edges is None:
            edges = {}
            for col in self.indexed_columns:
                vals = np.concatenate(
                    [p[:, col] for p in self.partitions]
                )
                lo, hi = float(vals.min()), float(vals.max())
                if lo == hi:
                    hi = lo + 1.0
                edges[col] = np.linspace(lo, hi, bins + 1)
        self.edges = edges
        #: per partition, per column: the bitmap index
        self.indexes: list[dict[int, BitmapIndex]] = [
            {
                col: BitmapIndex(p[:, col], edges=self.edges[col])
                for col in self.indexed_columns
            }
            for p in self.partitions
        ]

    @property
    def index_nbytes(self) -> int:
        """Compressed size of all bitmap indexes."""
        return sum(
            idx.nbytes for per_part in self.indexes
            for idx in per_part.values()
        )

    def query(self, ranges: dict[int, tuple[float, float]]) -> RangeQueryReport:
        """Rows satisfying every ``col: (lo, hi)`` condition (inclusive).

        Non-indexed columns in *ranges* are applied as a post-filter on
        the candidate rows.
        """
        if not ranges:
            raise ValueError("empty query")
        indexed = {c: r for c, r in ranges.items() if c in set(self.indexed_columns)}
        post = {c: r for c, r in ranges.items() if c not in indexed}
        hits = []
        rows_checked = 0
        touched = 0
        skipped = 0
        bulk_loads = 0
        for part, per_col in zip(self.partitions, self.indexes):
            mask = np.ones(part.shape[0], dtype=bool)
            pruned = False
            for col, (lo, hi) in indexed.items():
                result = per_col[col].query(lo, hi)
                rows_checked += result.rows_checked
                mask &= result.mask
                if not mask.any():
                    pruned = True
                    break
            if pruned:
                skipped += 1
                continue
            touched += 1
            # merged bulk load of the candidate rows of this partition
            candidates = part[mask]
            bulk_loads += 1
            for col, (lo, hi) in post.items():
                keep = (candidates[:, col] >= lo) & (candidates[:, col] <= hi)
                candidates = candidates[keep]
                # charge only the candidates that survive this column:
                # charging the pre-narrowing count once per post column
                # double-counts rows and can push rows_checked past
                # total_rows, turning scan_avoided_fraction negative
                rows_checked += candidates.shape[0]
            hits.append(candidates)
        rows = (
            np.concatenate(hits)
            if hits
            # empty result in the partitions' dtype, not float64
            else np.empty((0, self.partitions[0].shape[1]),
                          dtype=self.partitions[0].dtype)
        )
        return RangeQueryReport(
            rows=rows,
            total_rows=self.total_rows,
            rows_checked=rows_checked,
            partitions_touched=touched,
            partitions_skipped=skipped,
            bulk_loads=bulk_loads,
        )

    def brute_force(self, ranges: dict[int, tuple[float, float]]) -> np.ndarray:
        """Reference result: full scan of every partition."""
        out = []
        for part in self.partitions:
            mask = np.ones(part.shape[0], dtype=bool)
            for col, (lo, hi) in ranges.items():
                mask &= (part[:, col] >= lo) & (part[:, col] <= hi)
            out.append(part[mask])
        return (
            np.concatenate(out)
            if out
            else np.empty((0, self.partitions[0].shape[1]),
                          dtype=self.partitions[0].dtype)
        )
