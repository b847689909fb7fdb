"""Tests for the ADIOS XML config and the VisIt-style analysis reader."""

import numpy as np
import pytest

from repro.adios import BPWriter, ChunkMeta, GroupDef, OutputStep, SyncMPIIO, VarDef, VarKind
from repro.adios.config import (
    ConfigError,
    make_transport,
    parse_config,
)
from repro.adios.config import NullTransport
from repro.machine import Machine, TESTING_TINY
from repro.query import AnalysisReader
from repro.sim import Engine

XML = """
<adios-config>
  <adios-group name="particles">
    <var name="ntotal"    type="long"   kind="scalar"/>
    <var name="electrons" type="double" kind="local-array" ndim="2"/>
  </adios-group>
  <adios-group name="fields">
    <var name="rho" type="double" kind="global-array" ndim="3"/>
  </adios-group>
  <method group="particles" method="PREDATA"/>
  <method group="fields" method="MPI"/>
  <buffer size-MB="100"/>
</adios-config>
"""


# ---------------------------------------------------------------- config
def test_parse_config_groups():
    cfg = parse_config(XML)
    g = cfg.group("particles")
    assert g.var_names == ["ntotal", "electrons"]
    assert g.var("ntotal").kind is VarKind.SCALAR
    assert np.dtype(g.var("ntotal").dtype) == np.int64
    assert g.var("electrons").ndim == 2
    f = cfg.group("fields")
    assert f.var("rho").kind is VarKind.GLOBAL_ARRAY
    assert cfg.buffer_mb == 100.0


def test_parse_config_methods():
    cfg = parse_config(XML)
    assert cfg.method_for("particles") == "PREDATA"
    assert cfg.method_for("fields") == "MPI"


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="invalid XML"):
        parse_config("<oops")
    with pytest.raises(ConfigError, match="root element"):
        parse_config("<wrong/>")
    with pytest.raises(ConfigError, match="unknown type"):
        parse_config(
            "<adios-config><adios-group name='g'>"
            "<var name='x' type='quaternion'/></adios-group></adios-config>"
        )
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config(
            "<adios-config><adios-group name='g'>"
            "<var name='x' type='double' kind='hologram'/>"
            "</adios-group></adios-config>"
        )
    with pytest.raises(ConfigError, match="ndim"):
        parse_config(
            "<adios-config><adios-group name='g'>"
            "<var name='x' type='double' kind='local-array'/>"
            "</adios-group></adios-config>"
        )
    with pytest.raises(ConfigError, match="no vars"):
        parse_config(
            "<adios-config><adios-group name='g'/></adios-config>"
        )
    with pytest.raises(ConfigError, match="unknown group"):
        parse_config(
            "<adios-config><adios-group name='g'>"
            "<var name='x' type='double'/></adios-group>"
            "<method group='h' method='MPI'/></adios-config>"
        )
    with pytest.raises(ConfigError, match="unknown method"):
        parse_config(
            "<adios-config><adios-group name='g'>"
            "<var name='x' type='double'/></adios-group>"
            "<method group='g' method='CARRIER_PIGEON'/></adios-config>"
        )


def test_make_transport_mpi_and_null():
    cfg = parse_config(XML)
    eng = Engine()
    machine = Machine(eng, 2, 1, spec=TESTING_TINY)
    t = make_transport(cfg, "fields", machine)
    assert isinstance(t, SyncMPIIO)
    cfg.methods["fields"] = "NULL"
    assert isinstance(make_transport(cfg, "fields", machine), NullTransport)


def test_make_transport_predata_requires_deployment():
    cfg = parse_config(XML)
    eng = Engine()
    machine = Machine(eng, 2, 1, spec=TESTING_TINY)
    with pytest.raises(ConfigError, match="PreDatA deployment"):
        make_transport(cfg, "particles", machine)
    from repro.core import PreDatA
    from repro.operators import MinMaxOperator

    predata = PreDatA(eng, machine, cfg.group("particles"),
                      [MinMaxOperator("electrons")], ncompute_procs=2)
    t = make_transport(cfg, "particles", machine, predata=predata)
    assert t is predata.transport


def test_config_driven_run_swaps_transport_without_code_change():
    """The §IV.A property: identical app code, different method."""
    from repro.mpi import World

    def run(method):
        cfg = parse_config(XML.replace(
            '<method group="fields" method="MPI"/>',
            f'<method group="fields" method="{method}"/>'))
        eng = Engine()
        machine = Machine(eng, 2, 1, spec=TESTING_TINY,
                          fs_interference=False)
        world = World(eng, machine.network, [0, 1],
                      node_lookup=machine.node)
        transport = make_transport(cfg, "fields", machine)
        group = cfg.group("fields")
        written = {}

        def app(comm):  # the application never mentions the method
            data = np.full((4, 4, 4), float(comm.rank))
            step = OutputStep(
                group=group, step=0, rank=comm.rank,
                values={"rho": data},
                chunks={"rho": ChunkMeta((8, 4, 4), (comm.rank * 4, 0, 0))},
            )
            t = yield from transport.write_step(comm, step)
            written[comm.rank] = t

        world.spawn(app)
        eng.run()
        return written

    mpi_times = run("MPI")
    null_times = run("NULL")
    assert all(t > 0 for t in mpi_times.values())
    assert all(t == 0.0 for t in null_times.values())


# ---------------------------------------------------------------- reader
def make_field_file(nprocs=8, n=4, nsteps=2):
    g = GroupDef("f", (VarDef("rho", "float64",
                              VarKind.GLOBAL_ARRAY, ndim=3),))
    gx = nprocs * n
    w = BPWriter("f.bp", g)
    fulls = []
    for s in range(nsteps):
        full = np.arange(gx * n * n, dtype=float).reshape(gx, n, n) + s * 1000
        fulls.append(full)
        for r in range(nprocs):
            lo = r * n
            w.append_step(OutputStep(
                group=g, step=s, rank=r, values={"rho": full[lo : lo + n]},
                chunks={"rho": ChunkMeta((gx, n, n), (lo, 0, 0))},
            ))
    return w.close(), fulls


def test_reader_full_and_box():
    f, fulls = make_field_file()
    reader = AnalysisReader(f)
    np.testing.assert_array_equal(reader.full("rho", 0), fulls[0])
    np.testing.assert_array_equal(
        reader.box("rho", 1, (5, 1, 0), (12, 3, 2)),
        fulls[1][5:12, 1:3, 0:2],
    )
    assert reader.stats.reads == 2
    assert reader.stats.extents >= 8 + 2


def test_reader_slice_plane():
    f, fulls = make_field_file()
    reader = AnalysisReader(f)
    plane = reader.slice_plane("rho", 0, axis=0, index=9)
    np.testing.assert_array_equal(plane, fulls[0][9])
    # a plane orthogonal to the decomposition axis touches one chunk
    assert reader.stats.extents == 1
    plane_y = reader.slice_plane("rho", 0, axis=1, index=2)
    np.testing.assert_array_equal(plane_y, fulls[0][:, 2, :])
    # ... but a plane across it touches every chunk
    assert reader.stats.extents == 1 + 8


def test_reader_time_series():
    f, fulls = make_field_file(nsteps=2)
    reader = AnalysisReader(f)
    series = reader.time_series("rho", point=(7, 2, 1))
    np.testing.assert_array_equal(
        series, [fulls[0][7, 2, 1], fulls[1][7, 2, 1]]
    )
    assert reader.stats.reads == 2


def test_reader_validation_and_stats_reset():
    f, _ = make_field_file()
    reader = AnalysisReader(f)
    with pytest.raises(ValueError):
        reader.slice_plane("rho", 0, axis=5, index=0)
    with pytest.raises(ValueError):
        reader.slice_plane("rho", 0, axis=0, index=10_000)
    reader.full("rho", 0)
    stats = reader.reset_stats()
    assert stats.reads == 1
    assert reader.stats.reads == 0


def test_reader_merged_layout_cheaper_for_every_pattern():
    """Merged files win on extents for bulk loads and cross slices."""
    unmerged, fulls = make_field_file(nprocs=16, n=2)
    # merged: same data in 2 slabs
    g = unmerged.group
    w = BPWriter("merged.bp", g)
    full = fulls[0]
    for r, lo in enumerate((0, 16)):
        w.append_step(OutputStep(
            group=g, step=0, rank=r, values={"rho": full[lo : lo + 16]},
            chunks={"rho": ChunkMeta(full.shape, (lo, 0, 0))},
        ))
    merged = w.close()
    r_un, r_me = AnalysisReader(unmerged), AnalysisReader(merged)
    np.testing.assert_array_equal(r_un.full("rho", 0), r_me.full("rho", 0))
    r_un.slice_plane("rho", 0, axis=1, index=0)
    r_me.slice_plane("rho", 0, axis=1, index=0)
    assert r_me.stats.extents < r_un.stats.extents / 4
