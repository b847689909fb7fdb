"""ADIOS output-group definitions and per-step output payloads.

An application declares *what* it outputs once (a :class:`GroupDef` of
:class:`VarDef`), then at each I/O dump every process emits an
:class:`OutputStep` carrying real values.  The step knows how to pack
itself into an FFS packed partial data chunk (§IV.B Stage 1b) and back.

``volume_scale`` decouples the *functional* data (small arrays that
actually flow through operators in tests) from the *logical* data
volume used for timing — e.g. GTC's 132 MB/process can be represented
functionally by 1.32 MB with ``volume_scale=100``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from repro.ffs import Field as FFSField
from repro.ffs import Schema, decode, encode

__all__ = ["VarKind", "VarDef", "ChunkMeta", "GroupDef", "OutputStep"]


class VarKind(enum.Enum):
    """What a variable is, structurally."""

    SCALAR = "scalar"
    LOCAL_ARRAY = "local_array"  # per-process array, no global shape
    GLOBAL_ARRAY = "global_array"  # partial chunk of a global array


@dataclass(frozen=True)
class VarDef:
    """One declared output variable."""

    name: str
    dtype: str
    kind: VarKind = VarKind.SCALAR
    ndim: int = 0

    def __post_init__(self) -> None:
        np.dtype(self.dtype)  # validate
        if self.kind is VarKind.SCALAR and self.ndim != 0:
            raise ValueError(f"scalar var {self.name!r} cannot have ndim")
        if self.kind is not VarKind.SCALAR and self.ndim < 1:
            raise ValueError(f"array var {self.name!r} needs ndim >= 1")


@dataclass(frozen=True)
class ChunkMeta:
    """Placement of one process's chunk within a global array."""

    global_dims: tuple[int, ...]
    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.global_dims) != len(self.offsets):
            raise ValueError("global_dims and offsets rank mismatch")
        object.__setattr__(self, "global_dims", tuple(int(d) for d in self.global_dims))
        object.__setattr__(self, "offsets", tuple(int(o) for o in self.offsets))


@dataclass(frozen=True)
class GroupDef:
    """A named, ordered set of output variables."""

    name: str
    vars: tuple[VarDef, ...]

    def __post_init__(self) -> None:
        names = [v.name for v in self.vars]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate var names in group {self.name!r}")
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "_hash", hash((self.name, self.vars)))

    def __hash__(self) -> int:
        # the fields' hash, taken once: every packed step looks its
        # schema up by its group
        return self._hash

    def var(self, name: str) -> VarDef:
        """The :class:`VarDef` named *name* (KeyError if absent)."""
        for v in self.vars:
            if v.name == name:
                return v
        raise KeyError(f"group {self.name!r} has no var {name!r}")

    @property
    def var_names(self) -> list[str]:
        return [v.name for v in self.vars]


@dataclass
class OutputStep:
    """Everything one process outputs at one I/O dump.

    Attributes
    ----------
    group: the group definition.
    step: I/O step number.
    rank: producing rank.
    values: var name -> scalar or ndarray (functional data).
    chunks: var name -> :class:`ChunkMeta` for global-array vars.
    volume_scale: logical bytes = real bytes * volume_scale.
    """

    group: GroupDef
    step: int
    rank: int
    values: dict[str, Any]
    chunks: dict[str, ChunkMeta] = field(default_factory=dict)
    volume_scale: float = 1.0

    def __post_init__(self) -> None:
        for v in self.group.vars:
            if v.name not in self.values:
                raise ValueError(f"step missing value for var {v.name!r}")
            if v.kind is VarKind.GLOBAL_ARRAY and v.name not in self.chunks:
                raise ValueError(
                    f"global array {v.name!r} needs ChunkMeta in step"
                )
        if self.volume_scale <= 0:
            raise ValueError("volume_scale must be positive")

    # -- sizes -----------------------------------------------------------
    @property
    def nbytes_real(self) -> float:
        """Actual bytes of functional payload arrays + scalars."""
        total = 0.0
        for v in self.group.vars:
            val = self.values[v.name]
            if isinstance(val, np.ndarray):
                total += val.nbytes
            else:
                total += np.dtype(v.dtype).itemsize
        return total

    @property
    def nbytes_logical(self) -> float:
        """Bytes this step *represents* at full experiment scale."""
        return self.nbytes_real * self.volume_scale

    def rows_logical(self, var: str) -> float:
        """Rows of array *var* (its first axis) at full experiment scale."""
        return np.atleast_2d(self.values[var]).shape[0] * self.volume_scale

    # -- FFS packing -------------------------------------------------------
    def _runtime_schema(self) -> Schema:
        """FFS schema using each array value's *actual* dtype.

        FFS buffers are self-describing, so a first-pass operator that
        demoted a variable's precision (float64 -> float32) produces a
        legal, smaller chunk; the embedded schema carries the truth.
        """
        return _ffs_schema(self.group, tuple(
            None if v.kind is VarKind.SCALAR
            else np.asarray(self.values[v.name]).dtype.str
            for v in self.group.vars
        ))

    def pack(self) -> memoryview:
        """Encode into a packed partial data chunk: a read-only view
        that owns its bytes (:func:`repro.ffs.encode`)."""
        attrs = {
            "step": self.step,
            "rank": self.rank,
            "volume_scale": self.volume_scale,
            "chunks": {
                name: {"global_dims": list(c.global_dims), "offsets": list(c.offsets)}
                for name, c in self.chunks.items()
            },
        }
        return encode(self._runtime_schema(), self.values, attrs=attrs)

    @classmethod
    def unpack(cls, group: GroupDef, buf) -> "OutputStep":
        """Decode a packed partial data chunk produced by :meth:`pack`."""
        _, values, attrs = decode(buf)
        # the vars of one step mostly share a placement: one ChunkMeta each
        metas: dict[tuple, ChunkMeta] = {}
        chunks = {}
        for name, c in attrs.get("chunks", {}).items():
            key = (tuple(c["global_dims"]), tuple(c["offsets"]))
            meta = metas.get(key)
            if meta is None:
                meta = metas[key] = ChunkMeta(*key)
            chunks[name] = meta
        return cls(
            group=group,
            step=int(attrs["step"]),
            rank=int(attrs["rank"]),
            values=values,
            chunks=chunks,
            volume_scale=float(attrs.get("volume_scale", 1.0)),
        )


@lru_cache(maxsize=64)
def _ffs_schema(group: GroupDef, dtypes: tuple) -> Schema:
    """The FFS schema of *group* whose array vars have *dtypes* (None for
    a scalar), built once per distinct pair."""
    fields = []
    for v, dtype in zip(group.vars, dtypes):
        if v.kind is VarKind.SCALAR:
            fields.append(FFSField(v.name, v.dtype))
        else:
            fields.append(FFSField(v.name, dtype, (-1,) * v.ndim))
    return Schema(group.name, tuple(fields))
