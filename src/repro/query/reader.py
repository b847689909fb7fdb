"""VisIt-style analysis reader over BP files (Fig. 2's right side).

Pixie3D's pipeline ends with "derived quantities, along with the raw
output data ... read by visualization tools like VisIt for interactive
visual data exploration".  The reader implements the access patterns
such tools issue against BP files — full arrays, axis-aligned slice
planes, sub-boxes, and per-point time series — with extent accounting
so the merged-vs-unmerged layout cost of every pattern is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.adios.bp import BPFile

__all__ = ["AnalysisReader", "ReadStats"]


@dataclass
class ReadStats:
    """Accumulated layout cost of the reads issued so far."""

    reads: int = 0
    extents: int = 0
    bytes: int = 0

    def charge(self, extents: int, nbytes: int) -> None:
        """Account one read of *extents* extents and *nbytes* bytes."""
        self.reads += 1
        self.extents += extents
        self.bytes += nbytes


class AnalysisReader:
    """Read-side facade over one BP file."""

    def __init__(self, bpfile: BPFile):
        self.file = bpfile
        self.stats = ReadStats()

    # -- access patterns ---------------------------------------------------
    def full(self, var: str, step: int) -> np.ndarray:
        """Whole global array (bulk load)."""
        out = self.file.read_global_array(var, step)
        self.stats.charge(self.file.extents_for(var, step), out.nbytes)
        return out

    def box(
        self, var: str, step: int, lb: Sequence[int], ub: Sequence[int]
    ) -> np.ndarray:
        """Axis-aligned sub-box."""
        out, extents = self.file.read_region(var, step, tuple(lb), tuple(ub))
        self.stats.charge(extents, out.nbytes)
        return out

    def slice_plane(
        self, var: str, step: int, axis: int, index: int
    ) -> np.ndarray:
        """One grid plane orthogonal to *axis* (the VisIt slice)."""
        entries = self.file.entries(var, step)
        gdims = entries[0].chunk.global_dims
        if not 0 <= axis < len(gdims):
            raise ValueError(f"axis {axis} out of range for rank {len(gdims)}")
        if not 0 <= index < gdims[axis]:
            raise ValueError(f"index {index} outside dimension {gdims[axis]}")
        lb = [0] * len(gdims)
        ub = list(gdims)
        lb[axis], ub[axis] = index, index + 1
        out, extents = self.file.read_region(var, step, tuple(lb), tuple(ub))
        self.stats.charge(extents, out.nbytes)
        return np.squeeze(out, axis=axis)

    def time_series(self, var: str, point: Sequence[int]) -> np.ndarray:
        """One cell's value across every step (probe / pick pattern)."""
        steps = self.file.steps()
        lb = tuple(int(p) for p in point)
        ub = tuple(p + 1 for p in lb)
        out = np.empty(len(steps))
        for i, s in enumerate(steps):
            cell, extents = self.file.read_region(var, s, lb, ub)
            self.stats.charge(extents, cell.nbytes)
            out[i] = cell.reshape(-1)[0]
        return out

    # -- cost comparison ------------------------------------------------------
    def reset_stats(self) -> ReadStats:
        """Return-and-clear the accumulated stats."""
        out = self.stats
        self.stats = ReadStats()
        return out
