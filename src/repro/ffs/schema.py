"""Typed record schemas for FFS encoding."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["SchemaError", "Field", "Schema"]


class SchemaError(ValueError):
    """Schema definition or value/schema mismatch error."""


_ALLOWED_KINDS = {"b", "i", "u", "f", "c"}  # bool, int, uint, float, complex


@dataclass(frozen=True)
class Field:
    """One named field of a record.

    Parameters
    ----------
    name: field name (unique within a schema).
    dtype: numpy dtype string (e.g. ``"float64"``, ``"int32"``).
    shape:
        ``None`` for a scalar; a tuple for a fixed-shape array; entries
        of ``-1`` mark dimensions whose extent varies per record (the
        actual extent is recorded in each encoded buffer's header).
    """

    name: str
    dtype: str
    shape: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"invalid field name {self.name!r}")
        try:
            dt = np.dtype(self.dtype)
        except TypeError as exc:
            raise SchemaError(f"invalid dtype {self.dtype!r}") from exc
        if dt.kind not in _ALLOWED_KINDS:
            raise SchemaError(
                f"field {self.name!r}: dtype kind {dt.kind!r} not encodable"
            )
        object.__setattr__(self, "dtype", dt.str)  # canonicalise
        if self.shape is not None:
            shape = tuple(int(s) for s in self.shape)
            for s in shape:
                if s < -1 or s == 0:
                    raise SchemaError(
                        f"field {self.name!r}: bad dimension {s} in {shape}"
                    )
            object.__setattr__(self, "shape", shape)

    @property
    def is_scalar(self) -> bool:
        return self.shape is None

    def resolve_shape(self, value: np.ndarray) -> tuple[int, ...]:
        """Concrete shape of *value*, validated against the declaration."""
        if self.shape is None:
            raise SchemaError(f"field {self.name!r} is a scalar")
        actual = np.shape(value)
        if len(actual) != len(self.shape):
            raise SchemaError(
                f"field {self.name!r}: rank {len(actual)} != declared "
                f"{len(self.shape)}"
            )
        for decl, act in zip(self.shape, actual):
            if decl != -1 and decl != act:
                raise SchemaError(
                    f"field {self.name!r}: extent {act} != declared {decl}"
                )
        return actual

    def to_dict(self) -> dict:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "dtype": self.dtype,
            "shape": list(self.shape) if self.shape is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Field":
        shape = d.get("shape")
        return cls(
            d["name"], d["dtype"], tuple(shape) if shape is not None else None
        )


@dataclass(frozen=True)
class Schema:
    """An ordered collection of fields describing one record type."""

    name: str
    fields: tuple[Field, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("schema needs a name")
        flds = tuple(self.fields)
        names = [f.name for f in flds]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in schema {self.name!r}")
        object.__setattr__(self, "fields", flds)

    @property
    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def validate(self, values: dict) -> None:
        """Check that *values* exactly covers the schema's fields."""
        missing = set(self.field_names) - set(values)
        extra = set(values) - set(self.field_names)
        if missing:
            raise SchemaError(f"missing fields: {sorted(missing)}")
        if extra:
            raise SchemaError(f"unknown fields: {sorted(extra)}")

    def to_dict(self) -> dict:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return {"name": self.name, "fields": [f.to_dict() for f in self.fields]}

    @classmethod
    def from_dict(cls, d: dict) -> "Schema":
        return cls(d["name"], tuple(Field.from_dict(f) for f in d["fields"]))

    @classmethod
    def of(cls, name: str, **field_specs) -> "Schema":
        """Shorthand: ``Schema.of("s", x="float64", arr=("int32", (-1,)))``."""
        fields = []
        for fname, spec in field_specs.items():
            if isinstance(spec, str):
                fields.append(Field(fname, spec))
            else:
                dtype, shape = spec
                fields.append(Field(fname, dtype, tuple(shape)))
        return cls(name, tuple(fields))
