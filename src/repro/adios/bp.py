"""The BP log-structured file format (in-model representation).

A BP file is a sequence of *process group* (PG) records — one per
writing process per step — followed by an index that maps each variable
to the chunks holding it.  Writing is append-only and requires no
inter-writer coordination, which is why it is fast to write (§II.B);
the price is that a global array's chunks end up scattered across the
file, so *reading* one variable touches one extent per chunk.  PreDatA's
layout-reorganisation operator exists exactly to collapse those extents
(Fig. 11).

Files live in memory as structured objects plus (optionally) real
on-disk bytes via :meth:`BPFile.save` / :meth:`BPFile.load`, so tests
can exercise genuine serialisation.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.adios.group import ChunkMeta, GroupDef, OutputStep, VarKind
from repro.perf import kernels

__all__ = ["ProcessGroup", "BPIndexEntry", "BPFile", "BPWriter"]


@dataclass
class ProcessGroup:
    """One writer's record: its packed chunk plus placement info."""

    rank: int
    step: int
    payload: bytes | memoryview  # FFS packed partial data chunk
    logical_nbytes: float = 0.0

    @property
    def nbytes(self) -> int:
        return len(self.payload)


@dataclass(frozen=True)
class BPIndexEntry:
    """Index record: where one var's chunk lives."""

    var: str
    step: int
    pg_index: int
    chunk: Optional[ChunkMeta]  # None for scalars / local arrays
    local_dims: tuple[int, ...]


class BPError(RuntimeError):
    """Malformed BP file or invalid read request."""


@dataclass
class BPFile:
    """A finalized BP file."""

    name: str
    group: GroupDef
    pgs: list[ProcessGroup] = field(default_factory=list)
    index: dict[str, list[BPIndexEntry]] = field(default_factory=dict)
    #: decoded values per PG, keyed by its position in ``pgs`` and kept
    #: with the payload they were decoded from.  The arrays are read-only
    #: views into that payload, so the memo holds no second copy.
    _decoded: dict[int, tuple[Any, dict[str, Any]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- size ------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return sum(pg.nbytes for pg in self.pgs)

    @property
    def logical_nbytes(self) -> float:
        return sum(pg.logical_nbytes for pg in self.pgs)

    # -- queries -----------------------------------------------------------
    def steps(self) -> list[int]:
        """Sorted list of step numbers present in the file."""
        return sorted({pg.step for pg in self.pgs})

    def entries(self, var: str, step: Optional[int] = None) -> list[BPIndexEntry]:
        """Index entries for *var*, optionally filtered by step."""
        if var not in self.index:
            raise BPError(f"var {var!r} not in file {self.name!r}")
        entries = self.index[var]
        if step is not None:
            entries = [e for e in entries if e.step == step]
        return entries

    def extents_for(self, var: str, step: Optional[int] = None) -> int:
        """Discontiguous file extents a reader must touch for *var*.

        Each chunk is one contiguous region inside its PG record, so
        extents == number of chunks holding the variable.
        """
        return len(self.entries(var, step))

    def _values(self, pg_index: int) -> dict[str, Any]:
        """Decoded variables of one PG; each PG is unpacked once.

        Reading *n* variables visits every PG *n* times, and an unpack
        parses the PG's header and rebuilds its schema.  A hit must be
        for the very payload object now at ``pgs[pg_index]``, so a PG
        appended later (a new position) or a replaced record or payload
        is decoded afresh.
        """
        payload = self.pgs[pg_index].payload
        hit = self._decoded.get(pg_index)
        if hit is None or hit[0] is not payload:
            hit = (payload, OutputStep.unpack(self.group, payload).values)
            self._decoded[pg_index] = hit
        return hit[1]

    def _global_entries(self, var: str, step: int) -> tuple[np.dtype, list[BPIndexEntry]]:
        """The dtype of global array *var* and its chunks' entries at *step*."""
        vdef = self.group.var(var)
        if vdef.kind is not VarKind.GLOBAL_ARRAY:
            raise BPError(f"{var!r} is not a global array")
        entries = self.entries(var, step)
        if not entries:
            raise BPError(f"no chunks for {var!r} at step {step}")
        return np.dtype(vdef.dtype), entries

    def read_global_array(self, var: str, step: int) -> np.ndarray:
        """Functionally assemble a global array from its chunks."""
        dtype, entries = self._global_entries(var, step)
        gdims = entries[0].chunk.global_dims
        pieces = [(e.chunk.offsets, self._values(e.pg_index)[var]) for e in entries]
        out, filled = kernels.paste_pieces(gdims, dtype, pieces, (0,) * len(gdims))
        if not filled.all():
            raise BPError(
                f"global array {var!r} step {step}: "
                f"{int((~filled).sum())} cells not covered by any chunk"
            )
        return out

    def read_region(
        self,
        var: str,
        step: int,
        lb: tuple[int, ...],
        ub: tuple[int, ...],
    ) -> tuple[np.ndarray, int]:
        """Read a sub-box ``[lb, ub)`` of a global array.

        Returns ``(subarray, extents_touched)`` — the extent count is
        the number of chunks intersecting the box, i.e. the seeks a
        reader pays; a VisIt-style subvolume read on an unmerged file
        touches many chunks even for a small box, which is the other
        face of Fig. 11's layout argument.
        """
        dtype, entries = self._global_entries(var, step)
        gdims = entries[0].chunk.global_dims
        lb = tuple(int(v) for v in lb)
        ub = tuple(int(v) for v in ub)
        if len(lb) != len(gdims) or len(ub) != len(gdims):
            raise BPError("selection rank mismatch")
        for lo, hi, d in zip(lb, ub, gdims):
            if not 0 <= lo < hi <= d:
                raise BPError(f"selection {lb}..{ub} outside {gdims}")
        pieces = []
        for e in entries:
            offs = e.chunk.offsets
            # chunk box: [offs, offs+dims); intersect with [lb, ub)
            cut_lo = tuple(max(o, l) for o, l in zip(offs, lb))
            cut_hi = tuple(min(o + d, u) for o, d, u in zip(offs, e.local_dims, ub))
            if all(lo < hi for lo, hi in zip(cut_lo, cut_hi)):
                src = tuple(slice(lo - o, hi - o) for lo, hi, o in zip(cut_lo, cut_hi, offs))
                pieces.append((cut_lo, self._values(e.pg_index)[var][src]))
        shape = tuple(hi - lo for lo, hi in zip(lb, ub))
        out, filled = kernels.paste_pieces(shape, dtype, pieces, lb)
        if not filled.all():
            raise BPError(
                f"selection {lb}..{ub} of {var!r}: "
                f"{int((~filled).sum())} cells not covered"
            )
        return out, len(pieces)

    def read_var_chunks(self, var: str, step: int) -> list[tuple[BPIndexEntry, Any]]:
        """All (entry, value) pairs for *var* at *step*."""
        return [(e, self._values(e.pg_index)[var]) for e in self.entries(var, step)]

    # -- on-disk serialisation ------------------------------------------------
    _MAGIC = b"BPF1"

    def save(self, path) -> int:
        """Write real bytes to *path*; returns file size."""
        header = {
            "name": self.name,
            "group": _group_to_dict(self.group),
            "pgs": [
                {
                    "rank": pg.rank,
                    "step": pg.step,
                    "nbytes": pg.nbytes,
                    "logical_nbytes": pg.logical_nbytes,
                }
                for pg in self.pgs
            ],
            "index": {
                var: [
                    {
                        "step": e.step,
                        "pg": e.pg_index,
                        "chunk": (
                            {
                                "global_dims": list(e.chunk.global_dims),
                                "offsets": list(e.chunk.offsets),
                            }
                            if e.chunk
                            else None
                        ),
                        "local_dims": list(e.local_dims),
                    }
                    for e in entries
                ]
                for var, entries in self.index.items()
            },
        }
        hbytes = json.dumps(header, separators=(",", ":")).encode()
        with open(path, "wb") as f:
            f.write(self._MAGIC)
            f.write(struct.pack("<Q", len(hbytes)))
            f.write(hbytes)
            for pg in self.pgs:
                f.write(pg.payload)
        return 12 + len(hbytes) + sum(pg.nbytes for pg in self.pgs)

    @classmethod
    def load(cls, path) -> "BPFile":
        """Read a file :meth:`save` wrote.

        Every length is checked against the file size before it is read:
        a header running past the end, a header that does not parse, or
        PG sizes that do not exactly fill the bytes after the header
        raise :class:`BPError`, as does a bad magic.
        """
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size < 12 or f.read(4) != cls._MAGIC:
                raise BPError(f"{path}: not a BP file")
            (hlen,) = struct.unpack("<Q", f.read(8))
            if 12 + hlen > size:
                raise BPError(f"{path}: a {hlen}-byte header in a {size}-byte file")
            try:
                header = json.loads(f.read(hlen).decode())
                group = _group_from_dict(header["group"])
                recs = [
                    (r["rank"], r["step"], r["nbytes"], r["logical_nbytes"])
                    for r in header["pgs"]
                ]
                index = {
                    var: [
                        BPIndexEntry(
                            var=var,
                            step=e["step"],
                            pg_index=e["pg"],
                            chunk=(
                                ChunkMeta(
                                    tuple(e["chunk"]["global_dims"]),
                                    tuple(e["chunk"]["offsets"]),
                                )
                                if e["chunk"]
                                else None
                            ),
                            local_dims=tuple(e["local_dims"]),
                        )
                        for e in entries
                    ]
                    for var, entries in header["index"].items()
                }
                name = header["name"]
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise BPError(f"{path}: bad header: {exc!r}") from None
            sizes = [n for _, _, n, _ in recs]
            if not all(type(n) is int and n >= 0 for n in sizes) or sum(sizes) != size - 12 - hlen:
                raise BPError(
                    f"{path}: process group sizes do not fill the "
                    f"{size - 12 - hlen} bytes after the header"
                )
            pgs = [ProcessGroup(rank, step, f.read(n), logical) for rank, step, n, logical in recs]
        return cls(name=name, group=group, pgs=pgs, index=index)


class BPWriter:
    """Builds a :class:`BPFile` from process-group appends."""

    def __init__(self, name: str, group: GroupDef):
        self._file = BPFile(name=name, group=group)
        self._closed = False

    def append_step(self, step: OutputStep) -> None:
        """Append one process's output as a PG record + index entries."""
        if self._closed:
            raise BPError("writer already closed")
        payload = step.pack()
        pg = ProcessGroup(
            rank=step.rank,
            step=step.step,
            payload=payload,
            logical_nbytes=step.nbytes_logical,
        )
        pg_index = len(self._file.pgs)
        self._file.pgs.append(pg)
        for vdef in step.group.vars:
            val = step.values[vdef.name]
            local_dims = (
                tuple(int(s) for s in np.asarray(val).shape)
                if isinstance(val, np.ndarray)
                else ()
            )
            entry = BPIndexEntry(
                var=vdef.name,
                step=step.step,
                pg_index=pg_index,
                chunk=step.chunks.get(vdef.name),
                local_dims=local_dims,
            )
            self._file.index.setdefault(vdef.name, []).append(entry)

    def close(self) -> BPFile:
        """Finalize the index and return the immutable :class:`BPFile`."""
        self._closed = True
        return self._file


def _group_to_dict(group: GroupDef) -> dict:
    return {
        "name": group.name,
        "vars": [
            {"name": v.name, "dtype": v.dtype, "kind": v.kind.value, "ndim": v.ndim}
            for v in group.vars
        ],
    }


def _group_from_dict(d: dict) -> GroupDef:
    from repro.adios.group import VarDef  # local import to avoid cycle noise

    return GroupDef(
        d["name"],
        tuple(
            VarDef(v["name"], v["dtype"], VarKind(v["kind"]), v["ndim"])
            for v in d["vars"]
        ),
    )
