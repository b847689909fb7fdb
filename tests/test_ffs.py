"""Unit + property tests for FFS encoding (schemas, roundtrip, peek)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ffs import Field, Schema, SchemaError, decode, encode, peek


# ------------------------------------------------------------- schema
def test_field_canonicalises_dtype():
    f = Field("x", "float64")
    assert np.dtype(f.dtype) == np.float64


def test_field_rejects_bad_dtype():
    with pytest.raises(SchemaError):
        Field("x", "not-a-dtype")
    with pytest.raises(SchemaError):
        Field("x", "U10")  # strings not encodable as fields


def test_field_rejects_bad_shape():
    with pytest.raises(SchemaError):
        Field("x", "f8", (0,))
    with pytest.raises(SchemaError):
        Field("x", "f8", (-2,))


def test_schema_duplicate_names():
    with pytest.raises(SchemaError):
        Schema("s", (Field("a", "f8"), Field("a", "i4")))


def test_schema_of_shorthand():
    s = Schema.of("rec", x="float64", arr=("int32", (-1, 8)))
    assert s.field_names == ["x", "arr"]
    assert s.field_by_name("arr").is_variable


def test_schema_validate():
    s = Schema.of("rec", x="f8")
    with pytest.raises(SchemaError):
        s.validate({})
    with pytest.raises(SchemaError):
        s.validate({"x": 1.0, "y": 2.0})
    s.validate({"x": 1.0})


def test_resolve_shape_checks_fixed_dims():
    f = Field("a", "f8", (4, -1))
    assert f.resolve_shape(np.zeros((4, 7))) == (4, 7)
    with pytest.raises(SchemaError):
        f.resolve_shape(np.zeros((3, 7)))
    with pytest.raises(SchemaError):
        f.resolve_shape(np.zeros((4,)))


def test_schema_dict_roundtrip():
    s = Schema.of("rec", x="f8", a=("i8", (-1,)), b=("f4", (2, 3)))
    assert Schema.from_dict(s.to_dict()) == s


# ------------------------------------------------------------ encode
def test_roundtrip_scalars_and_arrays():
    s = Schema.of("rec", step="int64", temp="float64", data=("float64", (-1,)))
    values = {"step": 7, "temp": 3.25, "data": np.linspace(0, 1, 11)}
    buf = encode(s, values, attrs={"rank": 3})
    schema, out, attrs = decode(buf)
    assert schema == s
    assert out["step"] == 7
    assert out["temp"] == 3.25
    np.testing.assert_array_equal(out["data"], values["data"])
    assert attrs == {"rank": 3}


def test_roundtrip_2d_array():
    s = Schema.of("p", particles=("float64", (-1, 8)))
    arr = np.arange(40.0).reshape(5, 8)
    _, out, _ = decode(encode(s, {"particles": arr}))
    np.testing.assert_array_equal(out["particles"], arr)


def test_multiple_arrays_alignment():
    s = Schema.of("m", a=("int8", (-1,)), b=("float64", (-1,)), c=("int16", (-1,)))
    values = {
        "a": np.arange(3, dtype=np.int8),
        "b": np.linspace(0, 1, 5),
        "c": np.arange(7, dtype=np.int16),
    }
    _, out, _ = decode(encode(s, values))
    for k in values:
        np.testing.assert_array_equal(out[k], values[k])


def test_zero_copy_views():
    s = Schema.of("z", d=("float64", (-1,)))
    buf = encode(s, {"d": np.arange(4.0)})
    _, out, _ = decode(buf)
    assert not out["d"].flags.writeable  # view into immutable bytes


def test_peek_does_not_need_payload():
    s = Schema.of("g", n="int64", chunk=("float64", (-1,)))
    buf = encode(s, {"n": 99, "chunk": np.zeros(1000)}, attrs={"step": 4})
    meta = peek(buf)
    assert meta["scalars"]["n"] == 99
    assert meta["attrs"]["step"] == 4
    assert meta["shapes"]["chunk"] == [1000]


def test_scalar_special_values():
    s = Schema.of("sv", x="float64", z="complex128")
    buf = encode(s, {"x": float("inf"), "z": 1 + 2j})
    _, out, _ = decode(buf)
    assert out["x"] == float("inf")
    assert out["z"] == 1 + 2j


def test_bad_magic_rejected():
    with pytest.raises(SchemaError):
        decode(b"XXXX" + b"\x00" * 100)
    with pytest.raises(SchemaError):
        peek(b"FF")


def test_scalar_field_rejects_array_value():
    s = Schema.of("s", x="f8")
    with pytest.raises(SchemaError):
        encode(s, {"x": np.zeros(3)})


def test_encode_casts_dtype():
    s = Schema.of("c", a=("float64", (-1,)))
    buf = encode(s, {"a": np.arange(5, dtype=np.int32)})
    _, out, _ = decode(buf)
    assert out["a"].dtype == np.float64


# ---------------------------------------------------------- property
_DTYPES = ["int8", "int32", "int64", "uint16", "float32", "float64"]


@settings(max_examples=60, deadline=None)
@given(
    dtype=st.sampled_from(_DTYPES),
    data=st.data(),
)
def test_roundtrip_property(dtype, data):
    shape = data.draw(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)
    )
    arr = data.draw(
        hnp.arrays(
            dtype=np.dtype(dtype),
            shape=tuple(shape),
            elements=hnp.from_dtype(
                np.dtype(dtype), allow_nan=False, allow_infinity=False
            ),
        )
    )
    scalar = data.draw(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    s = Schema.of(
        "prop", k="int64", a=(dtype, tuple(-1 for _ in shape))
    )
    buf = encode(s, {"k": scalar, "a": arr}, attrs={"tag": "t"})
    schema, out, attrs = decode(buf)
    assert schema == s
    assert out["k"] == scalar
    np.testing.assert_array_equal(out["a"], arr)
    assert attrs == {"tag": "t"}


@settings(max_examples=30, deadline=None)
@given(
    nfields=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_many_field_roundtrip_property(nfields, data):
    fields = {}
    values = {}
    for i in range(nfields):
        dtype = data.draw(st.sampled_from(_DTYPES))
        n = data.draw(st.integers(min_value=1, max_value=50))
        fields[f"f{i}"] = (dtype, (-1,))
        values[f"f{i}"] = np.arange(n).astype(dtype)
    s = Schema.of("multi", **fields)
    _, out, _ = decode(encode(s, values))
    for k, v in values.items():
        np.testing.assert_array_equal(out[k], v)


# ---------------------------------------------------------------------
# non-C-contiguous inputs (regression: the packer must copy-normalise
# sliced / reversed / Fortran-order arrays instead of packing garbage
# strides, and the wire bytes must match the contiguous equivalent)
# ---------------------------------------------------------------------

def test_non_contiguous_arrays_encode_identically():
    base = np.arange(60, dtype="<f8")
    grid = np.asfortranarray(np.arange(24, dtype="<i4").reshape(4, 6))
    s = Schema.of("nc", a=("<f8", (-1,)), g=("<i4", (4, 6)))
    for view in (base[::2], base[::-1], base[10:50][::3]):
        assert not view.flags["C_CONTIGUOUS"]
        assert not grid.flags["C_CONTIGUOUS"]
        values = {"a": view, "g": grid}
        contiguous = {
            "a": np.ascontiguousarray(view),
            "g": np.ascontiguousarray(grid),
        }
        buf = encode(s, values)
        assert bytes(buf) == bytes(encode(s, contiguous))
        _, out, _ = decode(buf)
        np.testing.assert_array_equal(out["a"], view)
        np.testing.assert_array_equal(out["g"], grid)


def test_non_contiguous_zero_copy_pack_through_output_step():
    """OutputStep.pack accepts sliced fields."""
    from repro.adios import GroupDef, OutputStep, VarDef, VarKind

    g = GroupDef(
        "nc", (VarDef("x", "<f8", VarKind.LOCAL_ARRAY, 1),)
    )
    big = np.arange(100, dtype="<f8")
    step = OutputStep(group=g, step=0, rank=0, values={"x": big[::5]})
    _, out, _ = decode(step.pack())
    np.testing.assert_array_equal(out["x"], big[::5])


# ---------------------------------------------------------------------
# the packed view: an exact-size uninitialised buffer it owns
# ---------------------------------------------------------------------

def _pack_case(n):
    s = Schema.of("pb", a=("<f8", (-1,)), b=("<i2", (-1,)), c=("<f4", (-1,)))
    values = {
        "a": np.arange(n, dtype="<f8"),
        "b": np.arange(3, dtype="<i2"),  # 6 bytes: forces an alignment gap
        "c": np.arange(5, dtype="<f4"),  # 20 bytes: forces a trailing pad
    }
    return s, values


def test_encode_writes_every_byte_of_its_uninitialised_buffer(monkeypatch):
    """The buffer is not zero-filled, so every gap and pad byte must be
    written by the packer itself."""
    clean = {n: bytes(encode(*_pack_case(n))) for n in (0, 1, 7, 1000)}
    empty, dirtied = np.empty, []

    def dirty_empty(shape, dtype=float):
        out = empty(shape, dtype)
        out.fill(0xFF)
        dirtied.append(out.size)
        return out

    monkeypatch.setattr(np, "empty", dirty_empty)
    for n, want in clean.items():
        assert bytes(encode(*_pack_case(n))) == want
    assert dirtied == [len(want) for want in clean.values()]


def test_packed_view_owns_its_buffer_and_dies_with_its_last_reader():
    import gc
    import weakref

    s, values = _pack_case(100)
    view = encode(s, values)
    assert view.readonly and view.nbytes == len(view.obj.data)
    backing = weakref.ref(view.obj)
    _, out, _ = decode(view)
    del view
    gc.collect()
    assert backing() is not None  # a decoded array keeps the bytes alive
    np.testing.assert_array_equal(out["a"], values["a"])
    del out
    gc.collect()
    assert backing() is None  # the last reader frees them


# ------------------------------------------------------------ hostile headers
def _record_with_shapes(**shapes):
    """A valid ``a=float64[4], b=int32[3]`` record whose header is
    re-encoded with *shapes* overriding the true extents."""
    import json

    s = Schema.of("r", a=("float64", (-1,)), b=("int32", (-1,)))
    buf = bytes(encode(s, {"a": np.arange(4.0), "b": np.array([7, 8, 9], np.int32)}))
    hlen = int.from_bytes(buf[4:8], "little")
    header = json.loads(buf[8 : 8 + hlen])
    header["shapes"].update(shapes)
    hbytes = json.dumps(header).encode()
    return buf[:4] + len(hbytes).to_bytes(4, "little") + hbytes + buf[8 + hlen :]


def test_decode_accepts_its_own_re_encoded_header():
    _, values, _ = decode(_record_with_shapes())
    np.testing.assert_array_equal(values["a"], np.arange(4.0))
    np.testing.assert_array_equal(values["b"], [7, 8, 9])


@pytest.mark.parametrize(
    "shape", [[-1], [2], [5], [1.5], ["4"], [4, 1], [], [2**62]]
)
def test_decode_rejects_a_lying_extent(shape):
    with pytest.raises(SchemaError):
        decode(_record_with_shapes(a=shape))


def _record_with_header(hbytes):
    """An ``FFS1`` record whose header is *hbytes* and payload empty."""
    return b"FFS1" + len(hbytes).to_bytes(4, "little") + hbytes


_EMPTY_SCHEMA = b'{"name": "r", "fields": []}'


def test_decode_accepts_a_hand_built_empty_record():
    schema, values, attrs = decode(
        _record_with_header(b'{"schema": ' + _EMPTY_SCHEMA + b', "shapes": {}}')
    )
    assert schema == Schema("r") and values == {} and attrs == {}


@pytest.mark.parametrize("reader", [decode, peek])
@pytest.mark.parametrize(
    "hbytes",
    [
        b"{not json",
        b'{"schema": ' + _EMPTY_SCHEMA + b', "shapes": {}, "attrs": "\xff"}',
        b"[1,2]",
        b"null",
        b'{"shapes": {}}',
        b'{"schema": ' + _EMPTY_SCHEMA + b"}",
        b'{"schema": 5, "shapes": {}}',
        b'{"schema": {"name": "r"}, "shapes": {}}',
        b'{"schema": {"name": "r", "fields": [5]}, "shapes": {}}',
        b'{"schema": {"name": "r", "fields": [{"name": "a", "dtype": "f8", '
        b'"shape": "ab"}]}, "shapes": {}}',
        b'{"schema": ' + _EMPTY_SCHEMA + b', "shapes": []}',
        b'{"schema": ' + _EMPTY_SCHEMA + b', "shapes": {}, "scalars": [1]}',
        b'{"schema": ' + _EMPTY_SCHEMA + b', "shapes": {}, "attrs": 3}',
    ],
    ids=[
        "not-json", "not-utf8", "list", "null", "no-schema", "no-shapes",
        "schema-not-object", "schema-without-fields", "field-not-object",
        "field-bad-shape", "shapes-not-object", "scalars-not-object",
        "attrs-not-object",
    ],
)
def test_a_malformed_header_is_a_schema_error(reader, hbytes):
    with pytest.raises(SchemaError):
        reader(_record_with_header(hbytes))


def test_decode_rejects_a_truncated_or_padded_payload():
    s = Schema.of("r", a=("float64", (-1,)))
    buf = bytes(encode(s, {"a": np.arange(40.0)}))
    with pytest.raises(SchemaError):
        decode(buf[:-100])
    with pytest.raises(SchemaError):
        decode(buf + bytes(8))
