"""3-D array layout reorganisation for Pixie3D (§II.B, §V.C, Fig. 11).

Pixie3D's output is eight 3-D global arrays decomposed into small
(32^3) per-process chunks.  Written directly, each BP file scatters a
global array across thousands of chunks, so a reader pays one seek per
chunk — the 'unmerged' line of Fig. 11.  This operator merges partial
chunks into one large contiguous slab per staging rank before writing,
collapsing extents by the compute:staging ratio (128:1 in the paper)
and yielding the ~10x read improvement.

Merging happens along the slowest-varying (first) global dimension:
staging rank *i* owns slab ``[slab_starts[i] : slab_starts[i+1])``.
Map tags each chunk with its owning slab(s); Reduce pastes chunks into
the slab array; Finalize appends the merged slab to the output BP
writer and charges the (logical-volume) file-system write.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

import numpy as np

from repro.adios.bp import BPWriter
from repro.adios.group import ChunkMeta, GroupDef, OutputStep
from repro.core.operator import Emit, OperatorContext, PreDatAOperator
from repro.machine.filesystem import ParallelFileSystem
from repro.mpi.datasize import nbytes_of
from repro.perf import kernels

__all__ = ["ArrayMergeOperator", "ChunkGeometry"]

#: wire bytes of an empty dict, of one variable's geometry with empty
#: extent lists, and of one extent in such a list
_EMPTY_DICT = nbytes_of({})
_EMPTY_GEOMETRY = nbytes_of({"global_dims": [], "offsets": [], "local_dims": []})
_EXTENT = nbytes_of(0)


@dataclass(frozen=True)
class ChunkGeometry:
    """Partial_calculate's result: where one process's chunks sit.

    ``dims`` maps each variable to ``(global_dims, offsets,
    local_dims)``.  Frozen, so ``nbytes`` — its wire size — is priced
    once, when it is made, however many gathers carry it: exactly what
    :func:`nbytes_of` charges for the ``{var: {"global_dims": [..],
    "offsets": [..], "local_dims": [..]}}`` dict of lists it stands for.
    """

    dims: dict[str, tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]
    nbytes: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a key costs its UTF-8 length, as nbytes_of prices a str
        object.__setattr__(self, "nbytes", _EMPTY_DICT + sum(
            len(var.encode("utf-8")) + _EMPTY_GEOMETRY + _EXTENT * sum(map(len, extents))
            for var, extents in self.dims.items()
        ))


class ArrayMergeOperator(PreDatAOperator):
    """Merges partial chunks of global arrays into contiguous slabs.

    Parameters
    ----------
    variables: names of the global-array vars to reorganise (Pixie3D:
        all eight).
    out_group: group definition for the merged output file.
    filesystem: when given, Finalize writes merged slabs through it.
    writer: optional shared :class:`BPWriter` collecting the merged
        file (one per I/O step set); when omitted, merged slabs are
        only returned.
    """

    name = "array_merge"

    def __init__(
        self,
        variables: list[str],
        *,
        out_group: Optional[GroupDef] = None,
        filesystem: Optional[ParallelFileSystem] = None,
        writer: Optional[BPWriter] = None,
    ):
        if not variables:
            raise ValueError("need at least one variable to merge")
        self.variables = list(variables)
        self.out_group = out_group
        self.filesystem = filesystem
        self.writer = writer

    # -- pass 1: publish chunk geometry so slabs can be planned ----------
    def partial_calculate(self, step: OutputStep) -> ChunkGeometry:
        return ChunkGeometry({
            var: (
                step.chunks[var].global_dims,
                step.chunks[var].offsets,
                np.shape(step.values[var]),
            )
            for var in self.variables
        })

    def aggregate(self, partials: list[ChunkGeometry]) -> dict[str, tuple[int, ...]]:
        # global dims are identical across processes; keep one copy.
        dims = {}
        for p in partials:
            for var, (global_dims, _offsets, _local) in p.dims.items():
                dims.setdefault(var, global_dims)
        return dims

    # -- stage 4 ------------------------------------------------------------
    def initialize(self, ctx: OperatorContext) -> None:
        dims = ctx.aggregated
        if dims is None:
            raise RuntimeError(f"{self.name}: no geometry aggregated")
        ctx.storage["global_dims"] = dims
        # Slab ownership: split dim 0 evenly across staging workers.
        starts = {}
        for var, gd in dims.items():
            starts[var] = np.linspace(0, gd[0], ctx.nworkers + 1).astype(int).tolist()
        ctx.storage["slab_starts"] = starts

    def _owners(self, starts: list[int], lo: int, hi: int) -> Iterable[int]:
        """Slab indices overlapping global rows [lo, hi)."""
        first = bisect_right(starts, lo) - 1
        last = bisect_right(starts, hi - 1) - 1
        return range(max(first, 0), min(last, len(starts) - 2) + 1)

    def map(self, ctx: OperatorContext, step: OutputStep) -> Iterable[Emit]:
        out = []
        starts_by_var = ctx.storage["slab_starts"]
        for var in self.variables:
            data = np.asarray(step.values[var])
            chunk = step.chunks[var]
            starts = starts_by_var[var]
            lo = chunk.offsets[0]
            hi = lo + data.shape[0]
            for owner in self._owners(starts, lo, hi):
                s_lo, s_hi = starts[owner], starts[owner + 1]
                cut_lo = max(lo, s_lo)
                cut_hi = min(hi, s_hi)
                piece = data[cut_lo - lo : cut_hi - lo]
                out.append(
                    Emit(
                        (var, owner),
                        (
                            (cut_lo, *chunk.offsets[1:]),
                            piece,
                        ),
                    )
                )
        return out

    def map_flops(self, step: OutputStep) -> float:
        return 1.0 * step.nbytes_logical  # one pass to slice/copy

    def partition(self, ctx: OperatorContext, tag: Any) -> int:
        return int(tag[1])

    def reduce(self, ctx: OperatorContext, tag: Any, values: list[Any]) -> Any:
        """Paste pieces into this owner's slab, checking full coverage.

        A zero-height slab (more workers than rows along dim 0) is
        legal: no pieces arrive and the coverage check passes vacuously
        on the empty slab.
        """
        var, owner = tag
        dims = ctx.storage["global_dims"][var]
        starts = ctx.storage["slab_starts"][var]
        s_lo, s_hi = starts[owner], starts[owner + 1]
        slab_shape = (s_hi - s_lo, *dims[1:])
        origin = (s_lo,) + (0,) * (len(dims) - 1)
        dtype = values[0][1].dtype if values else np.float64
        slab, filled = kernels.paste_pieces(slab_shape, dtype, values, origin)
        if not filled.all():
            raise RuntimeError(
                f"{self.name}: slab {tag} has {int((~filled).sum())} uncovered cells"
            )
        return (s_lo, slab)

    def reduce_flops(self, ctx: OperatorContext, tag: Any, values: list[Any]) -> float:
        real = sum(np.asarray(p).nbytes for _, p in values)
        return real * ctx.volume_scale / 4.0

    def finalize(self, ctx: OperatorContext, reduced: dict):
        merged = {}
        total_real = 0.0
        dims = ctx.storage["global_dims"]
        for (var, _owner), (s_lo, slab) in sorted(
            reduced.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            merged[var] = (s_lo, slab)
            total_real += slab.nbytes
        # One PG record per staging rank holding all vars' merged slabs
        # — this is what collapses the reader's extent count (Fig. 11).
        if self.writer is not None and set(merged) == set(self.variables):
            gstep = OutputStep(
                group=self.out_group,
                step=ctx.step,
                rank=ctx.rank,
                values={var: slab for var, (_lo, slab) in merged.items()},
                chunks={
                    var: ChunkMeta(
                        dims[var], (lo, *([0] * (len(dims[var]) - 1)))
                    )
                    for var, (lo, _slab) in merged.items()
                },
                volume_scale=ctx.volume_scale,
            )
            self.writer.append_step(gstep)
        if self.filesystem is not None and total_real > 0:
            nbytes = total_real * ctx.volume_scale

            def body():
                yield from self.filesystem.write(nbytes)
                return merged

            return body()
        return merged

    def logical_fraction_shuffled(self) -> float:
        return 1.0
