"""Hilbert-sharded index ownership across staging nodes.

The serving layer does not hold one monolithic
:class:`~repro.query.range_query.RangeQueryEngine`: index partitions
are owned by shards (staging nodes), and a query scatters to the
owning shards and gathers their partial results.  Ownership reuses the
DataSpaces hashing (:func:`repro.dataspaces.sfc.hilbert_owner`): a
partition's key interval ``[lo, hi]`` on the routing column maps to
the grid point ``(cell(lo), cell(hi))``, and the Hilbert index of that
point — cut into ``nshards`` equal curve segments — names the owner.
Nearby intervals land on nearby curve positions, so range queries
touch few shards.

All shards share the *global* bin edges (computed across every
partition), exactly as the staging pipeline's aggregation step aligns
histogram bins, so per-shard answers concatenate into the same rows a
monolithic engine would return.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.dataspaces.sfc import hilbert_owner
from repro.query.range_query import RangeQueryEngine

__all__ = [
    "ShardedStepIndex",
    "merge_aggregates",
    "partial_aggregate",
]

#: Hilbert curve order of the ownership grid (2^5 x 2^5 cells)
_SFC_ORDER = 5


def partial_aggregate(rows: np.ndarray, col: int) -> dict:
    """One shard's aggregation partial over its matching *rows*."""
    if rows.shape[0] == 0:
        return {"count": 0, "sum": 0.0, "min": None, "max": None}
    vals = rows[:, col]
    return {
        "count": int(rows.shape[0]),
        "sum": float(vals.sum()),
        "min": float(vals.min()),
        "max": float(vals.max()),
    }


def merge_aggregates(partials: Sequence[dict]) -> dict:
    """Gather-side merge of per-shard partials (count/sum/min/max/mean)."""
    count = sum(p["count"] for p in partials)
    total = sum(p["sum"] for p in partials)
    mins = [p["min"] for p in partials if p["min"] is not None]
    maxs = [p["max"] for p in partials if p["max"] is not None]
    return {
        "count": count,
        "sum": total,
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
        "mean": total / count if count else None,
    }


class ShardedStepIndex:
    """Index of one committed step, partition-sharded by Hilbert hash.

    Parameters
    ----------
    partitions: the step's row blocks (one per staging rank).
    indexed_columns: columns carrying bitmap indexes; the first is the
        *routing column* whose per-partition interval drives shard
        assignment.
    nshards: owner count.
    bins: bins per bitmap index.
    """

    def __init__(
        self,
        partitions: Sequence[np.ndarray],
        indexed_columns: Sequence[int],
        *,
        nshards: int,
        bins: int = 64,
    ):
        self.indexed_columns = tuple(indexed_columns)
        if not self.indexed_columns:
            raise ValueError("need at least one indexed column")
        self.nshards = int(nshards)
        parts = [np.atleast_2d(np.asarray(p)) for p in partitions if len(p)]
        if not parts:
            raise ValueError("need at least one non-empty partition")
        self.total_rows = sum(p.shape[0] for p in parts)
        # global, shard-aligned bin edges — identical to what a
        # monolithic RangeQueryEngine over the same partitions computes
        self.edges: dict[int, np.ndarray] = {}
        for col in self.indexed_columns:
            vals = np.concatenate([p[:, col] for p in parts])
            lo, hi = float(vals.min()), float(vals.max())
            if lo == hi:
                hi = lo + 1.0
            self.edges[col] = np.linspace(lo, hi, bins + 1)
        route_col = self.indexed_columns[0]
        self._route_lo = float(self.edges[route_col][0])
        self._route_hi = float(self.edges[route_col][-1])
        #: partition lists per shard
        self.assignment: list[list[np.ndarray]] = [[] for _ in range(self.nshards)]
        for p in parts:
            vals = p[:, route_col]
            owner = hilbert_owner(
                _SFC_ORDER,
                self._cell(float(vals.min())),
                self._cell(float(vals.max())),
                self.nshards,
            )
            self.assignment[owner].append(p)
        #: per-shard engine (None for shards owning no partitions)
        self.engines: list[Optional[RangeQueryEngine]] = [
            RangeQueryEngine(
                shard_parts, self.indexed_columns, edges=self.edges
            )
            if shard_parts
            else None
            for shard_parts in self.assignment
        ]
        #: per-shard (lo, hi) bounds of the routing column, for pruning
        self.bounds: list[Optional[tuple[float, float]]] = [
            (
                min(float(p[:, route_col].min()) for p in shard_parts),
                max(float(p[:, route_col].max()) for p in shard_parts),
            )
            if shard_parts
            else None
            for shard_parts in self.assignment
        ]

    def _cell(self, value: float) -> int:
        """Grid cell of a routing-column value on the 2^order axis."""
        n = 1 << _SFC_ORDER
        span = self._route_hi - self._route_lo
        if span <= 0:
            return 0
        cell = int((value - self._route_lo) / span * n)
        return min(max(cell, 0), n - 1)

    def owners_for(self, ranges: dict) -> list[int]:
        """Shards whose routing-column bounds intersect the query.

        A query without a routing-column condition scatters to every
        populated shard.
        """
        route_col = self.indexed_columns[0]
        cond = ranges.get(route_col)
        owners = []
        for shard, bound in enumerate(self.bounds):
            if bound is None:
                continue
            if cond is not None:
                lo, hi = cond
                if bound[1] < lo or bound[0] > hi:
                    continue
            owners.append(shard)
        return owners

    @property
    def populated_shards(self) -> int:
        return sum(1 for b in self.bounds if b is not None)
