"""Tests for the ADIOS XML config."""

import numpy as np
import pytest

from repro.adios import ChunkMeta, OutputStep, SyncMPIIO, VarKind
from repro.adios.config import (
    ConfigError,
    make_transport,
    parse_config,
)
from repro.adios.config import NullTransport
from repro.machine import Machine, TESTING_TINY
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

