"""Repository quality gates: documentation and decode robustness."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.ffs import Schema, SchemaError, decode, encode


def _walk_public_objects():
    """Yield (qualname, object) for every public class/function."""
    for modinfo in pkgutil.walk_packages(repro.__path__, "repro."):
        mod = importlib.import_module(modinfo.name)
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != modinfo.name:
                continue  # re-exports are documented at their source
            if inspect.isclass(obj) or inspect.isfunction(obj):
                yield f"{modinfo.name}.{name}", obj


def test_every_module_has_docstring():
    missing = []
    for modinfo in pkgutil.walk_packages(repro.__path__, "repro."):
        mod = importlib.import_module(modinfo.name)
        if not (mod.__doc__ or "").strip():
            missing.append(modinfo.name)
    assert not missing, f"undocumented modules: {missing}"


def test_every_public_object_has_docstring():
    missing = [
        qualname
        for qualname, obj in _walk_public_objects()
        if not (inspect.getdoc(obj) or "").strip()
    ]
    assert not missing, f"undocumented public objects: {missing}"


def test_public_classes_have_documented_public_methods():
    missing = []
    for qualname, obj in _walk_public_objects():
        if not inspect.isclass(obj):
            continue
        for mname, meth in vars(obj).items():
            if mname.startswith("_") or not inspect.isfunction(meth):
                continue
            if not (inspect.getdoc(meth) or "").strip():
                missing.append(f"{qualname}.{mname}")
    assert not missing, f"undocumented public methods: {missing}"


# -------------------------------------------------- decode robustness
@settings(max_examples=60, deadline=None)
@given(cut=st.integers(min_value=0, max_value=200), data=st.data())
def test_ffs_truncation_never_crashes_weirdly(cut, data):
    """Truncated buffers raise SchemaError (or return consistent data
    when the cut only removes trailing payload padding) — never
    segfault-style numpy errors."""
    schema = Schema.of("z", n="int64", arr=("float64", (-1,)))
    arr = np.arange(data.draw(st.integers(min_value=0, max_value=16)),
                    dtype=float)
    buf = encode(schema, {"n": 7, "arr": arr})
    truncated = buf[: max(len(buf) - cut, 0)]
    try:
        _, values, _ = decode(truncated)
        np.testing.assert_array_equal(values["arr"], arr)
    except (SchemaError, ValueError):
        pass  # the acceptable failure mode


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=0, max_size=64))
def test_ffs_garbage_rejected(data):
    with pytest.raises((SchemaError, ValueError)):
        decode(data)
