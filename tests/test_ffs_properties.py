"""Property-based round-trip tests for the FFS binary encoder.

Hypothesis drives :func:`repro.ffs.encode`/:func:`~repro.ffs.decode`
through the edges a hand-written table misses: every encodable dtype
kind in both endiannesses, zero-length variable dimensions, unicode
field and schema names, non-finite scalar floats, and partial
global-array chunks whose placement metadata rides in ``attrs``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ffs import Field, Schema, SchemaError, decode, encode

settings.register_profile("ffs", max_examples=40, deadline=None)
settings.load_profile("ffs")

# every encodable dtype kind (b/i/u/f/c), both byte orders where the
# itemsize makes endianness meaningful
DTYPES = st.sampled_from(
    ["|b1", "<i4", ">i4", "<u2", ">u2", "<f4", ">f8", "<c16", ">c8", "<i8"]
)

# field/schema names: any non-empty unicode minus lone surrogates
# (which cannot survive the UTF-8 header) — exercises CJK, emoji, etc.
NAMES = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=1,
    max_size=12,
)


def _elements(dtype: np.dtype):
    if dtype.kind == "b":
        return st.booleans()
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return st.integers(info.min, info.max)
    # floats/complex: full range incl. nan/inf via from_dtype defaults
    return hnp.from_dtype(dtype)


@st.composite
def dtype_and_array(draw, max_rank=2):
    dtype = np.dtype(draw(DTYPES))
    shape = draw(
        hnp.array_shapes(min_dims=1, max_dims=max_rank, min_side=0, max_side=6)
    )
    arr = draw(hnp.arrays(dtype, shape, elements=_elements(dtype)))
    return dtype, arr


def _assert_array_roundtrip(original: np.ndarray, decoded: np.ndarray,
                            dtype: np.dtype) -> None:
    ref = np.ascontiguousarray(original, dtype=dtype)
    assert decoded.dtype == dtype
    assert decoded.shape == ref.shape
    # bytewise: the strongest equality, NaN-proof
    assert decoded.tobytes() == ref.tobytes()


# -- local arrays -----------------------------------------------------------


@given(dtype_and_array())
def test_local_array_roundtrip(da):
    dtype, arr = da
    schema = Schema("rec", (Field("x", dtype.str, (-1,) * arr.ndim),))
    schema2, values, attrs = decode(encode(schema, {"x": arr}))
    assert schema2 == schema
    assert attrs == {}
    _assert_array_roundtrip(arr, values["x"], dtype)


@given(dtype_and_array(), dtype_and_array())
def test_two_field_payload_alignment(da1, da2):
    """Back-to-back payloads stay 8-byte aligned and independently decodable."""
    d1, a1 = da1
    d2, a2 = da2
    schema = Schema(
        "rec",
        (Field("a", d1.str, (-1,) * a1.ndim), Field("b", d2.str, (-1,) * a2.ndim)),
    )
    _, values, _ = decode(encode(schema, {"a": a1, "b": a2}))
    _assert_array_roundtrip(a1, values["a"], d1)
    _assert_array_roundtrip(a2, values["b"], d2)


def test_zero_length_array_roundtrip():
    schema = Schema("rec", (Field("x", "float64", (-1, 3)),))
    _, values, _ = decode(encode(schema, {"x": np.empty((0, 3))}))
    assert values["x"].shape == (0, 3)
    assert values["x"].dtype == np.float64


def test_decoded_arrays_are_zero_copy_views():
    schema = Schema("rec", (Field("x", "int64", (-1,)),))
    buf = encode(schema, {"x": np.arange(5)})
    _, values, _ = decode(buf)
    assert not values["x"].flags.writeable
    assert values["x"].base is not None


# -- scalars ----------------------------------------------------------------


@given(
    st.one_of(
        st.booleans(),
        st.integers(-(2**31), 2**31 - 1),
        st.floats(allow_nan=True, allow_infinity=True),
        st.complex_numbers(allow_nan=True, allow_infinity=True),
    )
)
def test_scalar_roundtrip(value):
    if isinstance(value, bool):
        dtype = "bool"
    elif isinstance(value, int):
        dtype = "int64"
    elif isinstance(value, complex):
        dtype = "complex128"
    else:
        dtype = "float64"
    schema = Schema("rec", (Field("v", dtype),))
    _, values, _ = decode(encode(schema, {"v": value}))
    got = values["v"]
    if isinstance(value, complex) and not isinstance(value, (bool, int, float)):
        for g, w in ((got.real, value.real), (got.imag, value.imag)):
            assert (math.isnan(g) and math.isnan(w)) or g == w
    elif isinstance(value, float) and math.isnan(value):
        assert math.isnan(got)
    else:
        assert got == value


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_decode_recovers_scalars_and_attrs_beside_a_payload(value):
    schema = Schema("rec", (Field("v", "float64"), Field("a", "int32", (-1,))))
    buf = encode(schema, {"v": value, "a": np.arange(3, dtype="int32")},
                 attrs={"rank": 4})
    _, values, attrs = decode(buf)
    got = values["v"]
    assert (math.isnan(got) and math.isnan(value)) or got == value
    assert attrs == {"rank": 4}
    np.testing.assert_array_equal(values["a"], np.arange(3, dtype="int32"))


# -- unicode names ----------------------------------------------------------


@given(NAMES, NAMES)
def test_unicode_schema_and_field_names(schema_name, field_name):
    schema = Schema(schema_name, (Field(field_name, "float32", (-1,)),))
    arr = np.linspace(0, 1, 4, dtype="float32")
    schema2, values, _ = decode(encode(schema, {field_name: arr}))
    assert schema2.name == schema_name
    assert schema2.field_names == [field_name]
    _assert_array_roundtrip(arr, values[field_name], np.dtype("float32"))


# -- partial global chunks --------------------------------------------------


@st.composite
def global_chunk(draw):
    """A rank's slab of a 1-D-decomposed global array + its placement."""
    nprocs = draw(st.integers(1, 8))
    local = draw(st.integers(0, 5))
    rank = draw(st.integers(0, nprocs - 1))
    width = draw(st.integers(1, 4))
    gdims = [nprocs * local, width]
    offsets = [rank * local, 0]
    data = draw(
        hnp.arrays(
            np.dtype("float64"),
            (local, width),
            elements=st.floats(-1e9, 1e9, allow_nan=False),
        )
    )
    return gdims, offsets, data


@given(global_chunk())
def test_partial_global_chunk_roundtrip(chunk):
    gdims, offsets, data = chunk
    schema = Schema("field", (Field("rho", "float64", (-1, -1)),))
    buf = encode(
        schema,
        {"rho": data},
        attrs={"global_dims": gdims, "offsets": offsets, "step": 0},
    )
    _, values, attrs = decode(buf)
    _assert_array_roundtrip(data, values["rho"], np.dtype("float64"))
    assert attrs["global_dims"] == gdims
    assert attrs["offsets"] == offsets
    # placement must stay consistent with the slab actually carried
    assert offsets[0] + data.shape[0] <= max(gdims[0], 0) or gdims[0] == 0


# -- schema validation edges ------------------------------------------------


def test_fixed_extent_mismatch_rejected():
    schema = Schema("rec", (Field("x", "float64", (4,)),))
    with pytest.raises(SchemaError):
        encode(schema, {"x": np.zeros(3)})


def test_scalar_field_rejects_arrays():
    schema = Schema("rec", (Field("x", "float64"),))
    with pytest.raises(SchemaError):
        encode(schema, {"x": np.zeros(3)})


def test_object_dtype_rejected():
    with pytest.raises(SchemaError):
        Field("x", "object")


def test_bad_magic_rejected():
    with pytest.raises(SchemaError):
        decode(b"NOPE" + b"\0" * 16)
