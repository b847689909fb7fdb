"""Particle tracking across output steps (§II.A, task 1).

GTC users track a million-particle subset out of billions across many
iterations, "requiring searching among the hundreds of 260 GB output
files by the particle label.  To expedite this operation, particles
can be (and for our example are) sorted by their labels before
searching."

:class:`SortedStepStore` holds one step's particle buckets as produced
by the staging area's sample sort (bucket *i*'s keys all precede
bucket *i+1*'s).  Lookups binary-search the bucket boundaries, then
binary-search within one bucket — O(log n) per label.  The same store
can be built *unsorted* (raw migrated output), in which case every
lookup scans, which is what makes the work-counter contrast the
paper's argument in miniature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = ["SortedStepStore", "ParticleTracker", "TrackResult"]


class SortedStepStore:
    """One output step's particle buckets, queryable by key column.

    Parameters
    ----------
    buckets: per-reducer row blocks (2-D arrays).  When ``sorted_=True``
        they must be globally ordered (each internally sorted, bucket
        boundaries non-overlapping) — exactly the sample-sort output.
    key_column: the label column.
    """

    def __init__(
        self,
        buckets: Sequence[np.ndarray],
        key_column: int,
        *,
        sorted_: bool = True,
    ):
        self.key_column = key_column
        self.sorted = sorted_
        self.buckets = [
            np.atleast_2d(np.asarray(b)) for b in buckets if len(b)
        ]
        self.rows_examined = 0  # work counter across all lookups
        if sorted_:
            self._validate_order()
            self._bucket_mins = np.array(
                [b[:, key_column][0] for b in self.buckets]
            )

    def _validate_order(self) -> None:
        prev_max = -np.inf
        for i, b in enumerate(self.buckets):
            keys = b[:, self.key_column]
            if np.any(np.diff(keys) < 0):
                raise ValueError(f"bucket {i} is not internally sorted")
            if keys.size and keys[0] < prev_max:
                raise ValueError(
                    f"bucket {i} overlaps its predecessor's key range"
                )
            if keys.size:
                prev_max = keys[-1]

    def find(self, label) -> Optional[np.ndarray]:
        """Return the row with *label*, or None.

        The label is compared against the key column in the buckets'
        own dtype — it is never coerced through ``float``, so int64
        labels >= 2**53 (beyond float64's exact-integer range) match
        exactly instead of colliding with their neighbours.
        """
        if self.sorted:
            if not self.buckets:
                return None
            # locate the candidate bucket, then binary search within
            idx = int(
                np.searchsorted(self._bucket_mins, label, side="right") - 1
            )
            for b in self.buckets[max(idx, 0) : idx + 2]:
                keys = b[:, self.key_column]
                j = int(np.searchsorted(keys, label))
                self.rows_examined += int(np.ceil(np.log2(max(keys.size, 2))))
                if j < keys.size and keys[j] == label:
                    return b[j]
            return None
        # unsorted: scan
        for b in self.buckets:
            keys = b[:, self.key_column]
            self.rows_examined += keys.size
            hits = np.nonzero(keys == label)[0]
            if hits.size:
                return b[hits[0]]
        return None


@dataclass
class TrackResult:
    """Trajectory of the tracked labels across steps."""

    labels: np.ndarray
    #: label -> list of per-step rows (None where the label was absent)
    trajectories: dict = field(default_factory=dict)
    rows_examined: int = 0
    steps_searched: int = 0

    def positions(self, label) -> np.ndarray:
        """(nsteps, 3) coordinates of one particle (NaN where absent)."""
        rows = self.trajectories[label]
        out = np.full((len(rows), 3), np.nan)
        for i, row in enumerate(rows):
            if row is not None:
                out[i] = row[:3]
        return out


class ParticleTracker:
    """Tracks labelled particles across a sequence of step stores."""

    def __init__(self, steps: Sequence[SortedStepStore]):
        if not steps:
            raise ValueError("need at least one step store")
        self.steps = list(steps)

    def track(self, labels: Sequence) -> TrackResult:
        """Follow every label through every step.

        The labels' dtype is preserved end-to-end: integer labels stay
        integers (trajectory keys are exact Python ints), so particle
        labels >= 2**53 are never silently rounded through float64.
        """
        labels = np.asarray(labels)
        result = TrackResult(labels=labels)
        before = sum(s.rows_examined for s in self.steps)
        for label in labels:
            # .item() yields the exact native scalar (int for integer
            # dtypes, float for floating ones) as the trajectory key
            result.trajectories[label.item()] = [
                store.find(label) for store in self.steps
            ]
        result.rows_examined = (
            sum(s.rows_examined for s in self.steps) - before
        )
        result.steps_searched = len(self.steps)
        return result
