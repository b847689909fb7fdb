"""Tests for ADIOS groups, OutputStep packing, BP files, transports."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adios import (
    BPFile,
    BPWriter,
    ChunkMeta,
    GroupDef,
    OutputStep,
    SyncMPIIO,
    VarDef,
    VarKind,
)
from repro.adios.bp import BPError
from repro.machine import FileSystemConfig, ParallelFileSystem
from repro.mpi import World
from repro.machine import Network, NetworkConfig, TorusTopology
from repro.sim import Engine


def particle_group():
    return GroupDef(
        "particles",
        (
            VarDef("ntotal", "int64", VarKind.SCALAR),
            VarDef("electrons", "float64", VarKind.LOCAL_ARRAY, ndim=2),
        ),
    )


def field_group():
    return GroupDef(
        "fields",
        (VarDef("rho", "float64", VarKind.GLOBAL_ARRAY, ndim=3),),
    )


def make_step(rank=0, n=10, step=0, scale=1.0):
    g = particle_group()
    return OutputStep(
        group=g,
        step=step,
        rank=rank,
        values={"ntotal": n, "electrons": np.arange(n * 8.0).reshape(n, 8) + rank},
        volume_scale=scale,
    )


# --------------------------------------------------------------- groups
def test_vardef_validation():
    with pytest.raises(ValueError):
        VarDef("x", "f8", VarKind.SCALAR, ndim=2)
    with pytest.raises(ValueError):
        VarDef("x", "f8", VarKind.LOCAL_ARRAY, ndim=0)


def test_group_duplicate_vars():
    with pytest.raises(ValueError):
        GroupDef("g", (VarDef("a", "f8"), VarDef("a", "f8")))


def test_step_requires_all_values():
    g = particle_group()
    with pytest.raises(ValueError):
        OutputStep(group=g, step=0, rank=0, values={"ntotal": 1})


def test_global_array_requires_chunkmeta():
    g = field_group()
    with pytest.raises(ValueError):
        OutputStep(group=g, step=0, rank=0, values={"rho": np.zeros((2, 2, 2))})


def test_step_pack_unpack_roundtrip():
    step = make_step(rank=3, n=7, step=5, scale=100.0)
    buf = step.pack()
    out = OutputStep.unpack(particle_group(), buf)
    assert out.rank == 3
    assert out.step == 5
    assert out.volume_scale == 100.0
    np.testing.assert_array_equal(out.values["electrons"], step.values["electrons"])
    assert out.values["ntotal"] == 7


def test_step_pack_with_chunks():
    g = field_group()
    step = OutputStep(
        group=g,
        step=1,
        rank=2,
        values={"rho": np.ones((4, 4, 4))},
        chunks={"rho": ChunkMeta((8, 8, 8), (4, 0, 4))},
    )
    out = OutputStep.unpack(g, step.pack())
    assert out.chunks["rho"].global_dims == (8, 8, 8)
    assert out.chunks["rho"].offsets == (4, 0, 4)


def test_logical_bytes_scaling():
    step = make_step(n=10, scale=100.0)
    assert step.nbytes_logical == pytest.approx(step.nbytes_real * 100.0)


def test_chunkmeta_validation():
    with pytest.raises(ValueError):
        ChunkMeta((4, 4), (0,))


# ------------------------------------------------------------------ BP
def test_bpwriter_appends_and_indexes():
    w = BPWriter("test.bp", particle_group())
    for r in range(4):
        w.append_step(make_step(rank=r, n=5))
    f = w.close()
    assert len(f.pgs) == 4
    assert f.extents_for("electrons") == 4
    assert f.steps() == [0]


def test_bp_global_array_assembly():
    g = field_group()
    w = BPWriter("fields.bp", g)
    # 2x1x1 decomposition of an (8,4,4) global array.
    full = np.arange(8 * 4 * 4, dtype=np.float64).reshape(8, 4, 4)
    for r, off in enumerate((0, 4)):
        w.append_step(
            OutputStep(
                group=g,
                step=0,
                rank=r,
                values={"rho": full[off : off + 4]},
                chunks={"rho": ChunkMeta((8, 4, 4), (off, 0, 0))},
            )
        )
    f = w.close()
    np.testing.assert_array_equal(f.read_global_array("rho", 0), full)
    assert f.extents_for("rho", 0) == 2


def test_bp_gap_detection():
    g = field_group()
    w = BPWriter("f.bp", g)
    w.append_step(
        OutputStep(
            group=g,
            step=0,
            rank=0,
            values={"rho": np.zeros((4, 4, 4))},
            chunks={"rho": ChunkMeta((8, 4, 4), (0, 0, 0))},
        )
    )
    f = w.close()
    with pytest.raises(BPError, match="not covered"):
        f.read_global_array("rho", 0)


def test_bp_read_nonexistent_var():
    f = BPWriter("e.bp", particle_group()).close()
    with pytest.raises(BPError):
        f.entries("nope")


def test_bp_read_var_chunks():
    w = BPWriter("t.bp", particle_group())
    for r in range(3):
        w.append_step(make_step(rank=r, n=4))
    f = w.close()
    chunks = f.read_var_chunks("electrons", 0)
    assert len(chunks) == 3
    assert all(v.shape == (4, 8) for _, v in chunks)


def two_var_file(nranks, *, nrows=None, sign=1.0):
    """File of ``rho`` and ``phi = -rho``, one PG of two rows per rank."""
    g = GroupDef(
        "fields",
        (
            VarDef("rho", "float64", VarKind.GLOBAL_ARRAY, ndim=2),
            VarDef("phi", "float64", VarKind.GLOBAL_ARRAY, ndim=2),
        ),
    )
    w = BPWriter("two.bp", g)
    for rank in range(nranks):
        chunk = ChunkMeta((nrows or 2 * nranks, 3), (rank * 2, 0))
        base = sign * (np.arange(6.0).reshape(2, 3) + 10 * rank)
        w.append_step(
            OutputStep(
                group=g,
                step=0,
                rank=rank,
                values={"rho": base, "phi": -base},
                chunks={"rho": chunk, "phi": chunk},
            )
        )
    return w.close()


def test_bp_read_back_unpacks_each_process_group_once(monkeypatch):
    f = two_var_file(4)
    unpacked = []
    real = OutputStep.unpack.__func__
    monkeypatch.setattr(
        OutputStep,
        "unpack",
        classmethod(lambda cls, group, buf: unpacked.append(buf) or real(cls, group, buf)),
    )
    rho = f.read_global_array("rho", 0)
    phi = f.read_global_array("phi", 0)
    np.testing.assert_array_equal(phi, -rho)
    np.testing.assert_array_equal(rho[2:4], np.arange(6.0).reshape(2, 3) + 10)
    box, extents = f.read_region("rho", 0, (1, 1), (5, 3))
    np.testing.assert_array_equal(box, rho[1:5, 1:3])
    assert extents == 3
    chunks = f.read_var_chunks("phi", 0)
    assert [e.pg_index for e, _ in chunks] == [0, 1, 2, 3]
    np.testing.assert_array_equal(chunks[2][1], phi[4:6])
    assert [id(b) for b in unpacked] == [id(pg.payload) for pg in f.pgs]
    assert not chunks[0][1].flags.writeable  # one decode, shared by every reader


def test_bp_process_group_appended_or_replaced_after_a_read_is_seen():
    f = two_var_file(2, nrows=6)
    with pytest.raises(BPError, match="6 cells not covered"):
        f.read_global_array("rho", 0)  # PGs 0 and 1 are decoded by now
    whole = two_var_file(3)
    f.pgs.append(whole.pgs[2])
    for var in ("rho", "phi"):
        f.index[var].append(whole.index[var][2])
    rho = f.read_global_array("rho", 0)
    np.testing.assert_array_equal(rho, whole.read_global_array("rho", 0))
    f.pgs[1] = two_var_file(2, nrows=6, sign=-1.0).pgs[1]
    np.testing.assert_array_equal(f.read_global_array("rho", 0)[2:4], -rho[2:4])
    np.testing.assert_array_equal(f.read_global_array("rho", 0)[:2], rho[:2])


def test_bp_save_load_roundtrip(tmp_path):
    g = field_group()
    w = BPWriter("fields.bp", g)
    full = np.random.default_rng(0).random((8, 4, 4))
    for r, off in enumerate((0, 4)):
        w.append_step(
            OutputStep(
                group=g,
                step=0,
                rank=r,
                values={"rho": full[off : off + 4]},
                chunks={"rho": ChunkMeta((8, 4, 4), (off, 0, 0))},
                volume_scale=10.0,
            )
        )
    f = w.close()
    path = tmp_path / "fields.bp"
    size = f.save(path)
    assert path.stat().st_size == size
    loaded = BPFile.load(path)
    np.testing.assert_array_equal(loaded.read_global_array("rho", 0), full)
    assert loaded.logical_nbytes == pytest.approx(f.logical_nbytes)


def test_bp_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bp"
    p.write_bytes(b"garbage")
    with pytest.raises(BPError):
        BPFile.load(p)


def _with_header(saved, edit):
    """*saved* BP bytes with its header JSON passed through *edit*."""
    hlen = int.from_bytes(saved[4:12], "little")
    header = json.loads(saved[12 : 12 + hlen])
    edit(header)
    hbytes = json.dumps(header).encode()
    return saved[:4] + len(hbytes).to_bytes(8, "little") + hbytes + saved[12 + hlen :]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b[:4] + (10**12).to_bytes(8, "little") + b[12:],
        lambda b: b[:12] + b"[" + b[13:],
        lambda b: _with_header(b, lambda h: h.pop("group")),
        lambda b: _with_header(b, lambda h: h["pgs"][0].update(nbytes="8")),
        lambda b: _with_header(b, lambda h: h["pgs"][0].update(nbytes=-1)),
        lambda b: b[:-50],
        lambda b: b + b"junk",
    ],
    ids=[
        "header-length-1e12", "header-not-json", "no-group", "pg-size-not-int",
        "pg-size-negative", "truncated-50", "trailing-junk",
    ],
)
def test_bp_load_checks_every_length_against_the_file(tmp_path, mutate):
    path = tmp_path / "two.bp"
    f = two_var_file(2)
    f.save(path)
    saved = path.read_bytes()
    np.testing.assert_array_equal(
        BPFile.load(path).read_global_array("rho", 0), f.read_global_array("rho", 0)
    )
    path.write_bytes(mutate(saved))
    with pytest.raises(BPError):
        BPFile.load(path)


def test_bp_append_step_holds_one_copy_of_the_step():
    """The packed chunk is the only step-sized allocation of a BP write."""
    g = GroupDef("one", (VarDef("x", "float64", VarKind.LOCAL_ARRAY, ndim=1),))
    data = np.arange(1 << 20, dtype=np.float64)  # 8 MB
    w = BPWriter("one.bp", g)
    tracemalloc.start()
    try:
        w.append_step(OutputStep(group=g, step=0, rank=0, values={"x": data}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.nbytes <= peak <= 1.1 * data.nbytes
    np.testing.assert_array_equal(w.close().read_var_chunks("x", 0)[0][1], data)


def test_writer_closed_rejects_append():
    w = BPWriter("x.bp", particle_group())
    w.close()
    with pytest.raises(BPError):
        w.append_step(make_step())


@settings(max_examples=25, deadline=None)
@given(
    splits=st.integers(min_value=1, max_value=8),
    nx=st.integers(min_value=1, max_value=4),
)
def test_bp_assembly_property(splits, nx):
    """Any 1-D decomposition of a global array reassembles exactly."""
    g = GroupDef(
        "pg", (VarDef("v", "float64", VarKind.GLOBAL_ARRAY, ndim=2),)
    )
    rows = splits * nx
    full = np.arange(rows * 3, dtype=float).reshape(rows, 3)
    w = BPWriter("p.bp", g)
    for r in range(splits):
        off = r * nx
        w.append_step(
            OutputStep(
                group=g,
                step=0,
                rank=r,
                values={"v": full[off : off + nx]},
                chunks={"v": ChunkMeta((rows, 3), (off, 0))},
            )
        )
    f = w.close()
    np.testing.assert_array_equal(f.read_global_array("v", 0), full)
    assert f.extents_for("v", 0) == splits


# ------------------------------------------------------------ transport
def test_sync_mpiio_blocks_for_write():
    eng = Engine()
    fs = ParallelFileSystem(
        eng,
        FileSystemConfig(
            aggregate_bandwidth=1e9,
            client_bandwidth=1e9,
            metadata_latency=0.0,
        ),
        interference=False,
    )
    topo = TorusTopology(2)
    net = Network(eng, topo, NetworkConfig())
    world = World(eng, net, [0, 1])
    transport = SyncMPIIO(fs)
    visible = {}

    def main(comm):
        step = make_step(rank=comm.rank, n=1000, scale=1e4)  # ~640 MB logical
        t = yield from transport.write_step(comm, step)
        visible[comm.rank] = t

    world.spawn(main)
    eng.run()
    transport.finalize()
    # 2 ranks x ~0.64 GB over a 1 GB/s shared pipe: each blocked > 1 s.
    assert all(t > 1.0 for t in visible.values())
    f = transport.file("particles")
    assert len(f.pgs) == 2
    assert fs.bytes_written > 1e9
