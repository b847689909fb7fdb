"""Post-preparation query services (GTC's analysis tasks, §II.A).

The reason PreDatA sorts and indexes in-transit is to make these
queries fast afterwards:

- :mod:`repro.query.tracker` — **particle tracking** (task 1): follow
  a subset of particles by their global label across many output
  steps.  Against sorted output the lookup is a binary search per
  bucket; against raw (migrated, out-of-order) output it degenerates
  to full scans of every 260 GB step file.
- :mod:`repro.query.range_query` — **range queries** (task 2): find
  particles whose coordinates fall in given ranges using the
  WAH-compressed bitmap indexes built in the staging area, with
  candidate checks only on edge bins — instead of scanning the whole
  particle array.
"""

from repro.query.tracker import ParticleTracker, SortedStepStore, TrackResult
from repro.query.range_query import RangeQueryEngine, RangeQueryReport

__all__ = [
    "ParticleTracker",
    "RangeQueryEngine",
    "RangeQueryReport",
    "SortedStepStore",
    "TrackResult",
]
