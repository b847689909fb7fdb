"""Parallel sample sort of particles by global label (Fig. 7(a)(d)).

GTC's particle arrays leave each process out-of-order (particles
migrate between processes as the simulation evolves, §II.A); particle
tracking needs them sorted by the ``(rank, local id)`` label.  Sample
sort in the PreDatA phases:

- ``Partial_calculate`` draws a sample of local keys;
- ``aggregate`` picks ``nworkers - 1`` splitters from the pooled
  samples (quantiles), defining one key range per reducer;
- ``Map`` partitions each chunk's rows into splitter buckets;
- the Shuffle is the all-to-all exchange that makes this operation
  communication-dominant (§V.B.1: sorting in compute nodes scales
  badly because the data shuffle time among compute nodes grows with
  scale and is visible to the simulation);
- ``Reduce`` merges and locally sorts each bucket;
- ``Finalize`` optionally writes sorted output to storage from the
  staging area.

The sorted result is globally ordered: every key on reducer *i* is <=
every key on reducer *i+1*, and each reducer's rows are sorted.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

import numpy as np

from repro.adios.group import OutputStep
from repro.core.operator import Emit, OperatorContext, PreDatAOperator
from repro.machine.filesystem import ParallelFileSystem
from repro.perf import kernels

__all__ = ["SampleSortOperator"]

#: base seed of the per-rank key samples (rank *r* draws from seed + r)
_SAMPLE_SEED = 7


class SampleSortOperator(PreDatAOperator):
    """Sample sort of a 2-D variable's rows by one key column.

    Parameters
    ----------
    var: group variable holding ``(n, k)`` arrays per process.
    key_column: column to sort by (GTC: the particle label).
    samples_per_rank: local sample size for splitter selection.
    filesystem: when given, Finalize writes each reducer's sorted
        bucket (at logical volume) to storage.
    """

    def __init__(
        self,
        var: str,
        key_column: int,
        *,
        samples_per_rank: int = 64,
        name: Optional[str] = None,
        filesystem: Optional[ParallelFileSystem] = None,
    ):
        if samples_per_rank < 1:
            raise ValueError("samples_per_rank must be >= 1")
        self.var = var
        self.key_column = key_column
        self.samples_per_rank = samples_per_rank
        self.name = name or f"sort:{var}[{key_column}]"
        self.filesystem = filesystem

    # -- pass 1: sampling ---------------------------------------------------
    def partial_calculate(self, step: OutputStep) -> Any:
        """Sample local keys; returns ``(sorted_samples, row_width)``.

        The row width rides along so that every staging rank can build
        well-formed empty ``(0, k)`` buckets even when no row ever
        reaches it (or when this process holds zero rows this step —
        then samples is None but the width still propagates).
        """
        data = np.atleast_2d(step.values[self.var])
        width = int(data.shape[1])
        keys = data[:, self.key_column] if width else np.empty(0)
        if keys.size == 0:
            return (None, width)
        rng = np.random.default_rng(_SAMPLE_SEED + step.rank)
        k = min(self.samples_per_rank, keys.size)
        idx = rng.choice(keys.size, size=k, replace=False)
        return (np.sort(keys[idx]), width)

    def partial_flops(self, step: OutputStep) -> float:
        k = self.samples_per_rank
        return 10.0 * k * max(np.log2(max(k, 2)), 1.0)

    def aggregate(self, partials: list[Any]) -> Any:
        """Pool all samples; returns ``(sorted_pool, row_width)``.

        Splitters are cut per-worker in :meth:`initialize`.  Returns
        None when no process sampled anything (all-empty step).
        """
        partials = [p for p in partials if p is not None]
        samples = [s for s, _w in partials if s is not None]
        if not samples:
            return None
        width = max(w for _s, w in partials)
        pool = np.sort(np.concatenate(samples))
        return (pool, width)

    # -- stage 4 ----------------------------------------------------------------
    def initialize(self, ctx: OperatorContext) -> None:
        """Cut strictly increasing splitters from the sample pool.

        Under heavy key skew the raw quantiles repeat (e.g. a pool that
        is 99 % one value), which would make several bucket ranges
        empty *by construction* while ``searchsorted`` still routed all
        ties to the first of the duplicate buckets.  Deduplicating
        keeps the splitter sequence strictly increasing; some reducers
        then legitimately receive no bucket at all — empty reducers are
        legal and produce well-formed ``(0, k)`` results downstream.
        """
        if ctx.aggregated is None:
            raise RuntimeError(f"{self.name}: no samples aggregated")
        pool, width = ctx.aggregated
        ctx.storage["splitters"] = kernels.select_splitters(pool, ctx.nworkers)
        ctx.storage["width"] = int(width)

    def map(self, ctx: OperatorContext, step: OutputStep) -> Iterable[Emit]:
        splitters = ctx.storage["splitters"]
        data = np.atleast_2d(step.values[self.var])
        keys = data[:, self.key_column]
        buckets = kernels.partition_rows(keys, splitters)
        return [Emit(b, rows) for b, rows in kernels.group_rows(data, buckets)]

    def map_flops(self, step: OutputStep) -> float:
        # binary search per row over the splitters + a partition pass;
        # splitter count is O(nworkers) so the search is ~10 ops/row.
        return 10.0 * self._rows_logical(step)

    def partition(self, ctx: OperatorContext, tag: Any) -> int:
        return int(tag)  # bucket b sorts on reducer b

    def reduce(self, ctx: OperatorContext, tag: Any, values: list[Any]) -> Any:
        """Merge + stable-sort one bucket; empty buckets yield (0, k)."""
        if not values:
            width = ctx.storage.get("width", 0)
            return np.empty((0, width))
        merged = np.concatenate([np.atleast_2d(v) for v in values], axis=0)
        order = kernels.stable_order(merged[:, self.key_column])
        return np.take(merged, order, axis=0)

    def reduce_flops(self, ctx: OperatorContext, tag: Any, values: list[Any]) -> float:
        # values are (rows, k) buckets from map: len() is the row count
        n = sum(map(len, values)) * ctx.volume_scale
        return 12.0 * n * max(np.log2(max(n, 2)), 1.0)

    def reduce_membytes(
        self, ctx: OperatorContext, tag: Any, values: list[Any]
    ) -> float:
        # Sorting tens of millions of 64-byte rows is memory-bound:
        # ~log2(n) key-compare passes plus the final random-gather of
        # whole rows, at poor cache locality (a few % of streaming
        # bandwidth per access).  ~100 effective sequential-bandwidth
        # traversals of the bucket reproduces measured qsort costs on
        # Opteron-class nodes (~1 s per 2M 64-byte rows).
        real = sum(v.nbytes for v in values)
        return 100.0 * real * ctx.volume_scale

    def finalize(self, ctx: OperatorContext, reduced: dict):
        """Persist this reducer's bucket (a well-formed ``(0, k)`` array
        when no row was routed here — legal under deduped splitters)."""
        bucket = reduced.get(ctx.rank)
        if bucket is None:
            bucket = np.empty((0, ctx.storage.get("width", 0)))
        if self.filesystem is not None:
            nbytes = float(np.asarray(bucket).nbytes) * ctx.volume_scale

            def body():
                yield from self.filesystem.write(nbytes)
                return bucket

            return body()
        return bucket

    def logical_fraction_shuffled(self) -> float:
        return 1.0  # the whole dataset crosses the shuffle

    # -- helpers ---------------------------------------------------------------
    def _rows_logical(self, step: OutputStep) -> float:
        return np.atleast_2d(step.values[self.var]).shape[0] * step.volume_scale
