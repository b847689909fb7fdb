"""Coupled-workflow reader applications (streaming consumers).

Two reader apps close the loop the coupled-workflow papers describe
(Catalyst-ADIOS2 in-transit analysis; openPMD streaming pipelines):
they attach to a :class:`~repro.stream.publisher.StepStream` through a
:class:`~repro.stream.consumer.ConsumerGroup` and process steps as
they commit, never touching a file.

- :class:`InTransitAnalysisReader` — Catalyst-style analysis service:
  maintains a running histogram and a per-step WAH occupancy bitmap
  over the arriving pieces (the same hot-path kernels the staging
  operators use);
- :class:`ParticleTrackingFollower` — a follower workflow that joins
  mid-run, catches up from the latest committed step, and tracks the
  hottest cell (argmax) of its region across steps — the trajectory a
  particle-tracking coupler would hand to the next code.
"""

from __future__ import annotations

import numpy as np

from repro.perf import kernels as K

__all__ = ["InTransitAnalysisReader", "ParticleTrackingFollower"]

#: a cell counts as occupied above this value
OCCUPANCY_THRESHOLD = 0.5


class InTransitAnalysisReader:
    """Running histogram + WAH occupancy bitmap over arriving steps."""

    def __init__(self, edges):
        self.edges = np.asarray(edges, dtype=float)
        if self.edges.ndim != 1 or self.edges.size < 2:
            raise ValueError("edges must be a 1-D array of >= 2 bounds")
        #: running histogram accumulated over every step seen
        self.counts = np.zeros(self.edges.size - 1, dtype=np.int64)
        #: steps processed, in arrival order
        self.steps: list[int] = []
        #: per-step count of cells above OCCUPANCY_THRESHOLD (bitmap popcount)
        self.occupancy: list[int] = []

    def on_step(self, wm, pieces) -> None:
        """Fold one step's pieces into the running analysis."""
        if not pieces:
            self.steps.append(wm.step)
            self.occupancy.append(0)
            return
        vals = np.concatenate([np.ravel(data) for _, data in pieces])
        self.counts += np.asarray(
            K.histogram1d(vals, self.edges), dtype=np.int64
        )
        words = K.wah_encode(vals > OCCUPANCY_THRESHOLD)
        self.steps.append(wm.step)
        self.occupancy.append(int(K.wah_count(words)))


class ParticleTrackingFollower:
    """Mid-run joiner tracking the argmax cell of its region."""

    def __init__(self):
        #: (step, global cell coords, value) per processed step
        self.trajectory: list[tuple[int, tuple[int, ...], float]] = []

    def on_step(self, wm, pieces) -> None:
        """Append this step's hottest cell to the trajectory."""
        best_val = None
        best_cell = None
        for region, data in pieces:
            arr = np.asarray(data)
            if arr.size == 0:
                continue
            flat = int(np.argmax(arr))
            coords = np.unravel_index(flat, arr.shape)
            val = float(arr[coords])
            # strict > keeps the first (SFC-ordered) piece on ties, so
            # the trajectory is deterministic
            if best_val is None or val > best_val:
                best_val = val
                best_cell = tuple(
                    int(c + lo) for c, lo in zip(coords, region.lb)
                )
        if best_val is not None:
            self.trajectory.append((wm.step, best_cell, best_val))
