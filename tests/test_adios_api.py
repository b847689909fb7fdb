"""Tests for the imperative ADIOS open/write/close API."""

import numpy as np
import pytest

from repro.adios import Adios, ConfigError, parse_config
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World
from repro.sim import Engine

XML = """
<adios-config>
  <adios-group name="fields">
    <var name="step_no" type="long"   kind="scalar"/>
    <var name="rho"     type="double" kind="global-array" ndim="3"/>
  </adios-group>
  <method group="fields" method="MPI"/>
</adios-config>
"""


def build(method="MPI", nprocs=2):
    eng = Engine()
    machine = Machine(eng, nprocs, 1, spec=TESTING_TINY,
                      fs_interference=False)
    world = World(eng, machine.network, list(range(nprocs)),
                  node_lookup=machine.node)
    cfg = parse_config(XML.replace("MPI", method))
    adios = Adios(cfg, machine)
    return eng, machine, world, adios


def test_open_write_close_roundtrip():
    eng, machine, world, adios = build()
    times = {}

    def app(comm):
        n = 4
        fh = adios.open("fields", comm, step=0)
        fh.write("step_no", 0)
        fh.write(
            "rho",
            np.full((n, n, n), float(comm.rank)),
            global_dims=(2 * n, n, n),
            offsets=(comm.rank * n, 0, 0),
        )
        t = yield from fh.close()
        times[comm.rank] = t

    world.spawn(app)
    eng.run()
    adios.finalize()
    assert all(t > 0 for t in times.values())
    f = adios.transport_for("fields").file("fields")
    full = f.read_global_array("rho", 0)
    assert (full[:4] == 0.0).all() and (full[4:] == 1.0).all()


def test_predata_method_stages_the_same_application_code():
    """§IV.A: switching the XML method to PREDATA routes the unchanged
    open/write/close code through the staging area."""
    from repro.core import PreDatA
    from repro.operators import ArrayMergeOperator

    eng, machine, world, _ = build()
    cfg = parse_config(XML.replace("MPI", "PREDATA"))
    op = ArrayMergeOperator(["rho"])
    predata = PreDatA(eng, machine, cfg.group("fields"), [op], ncompute_procs=2)
    predata.start()
    adios = Adios(cfg, machine, predata=predata)
    assert adios.transport_for("fields") is predata.transport

    def app(comm):
        fh = adios.open("fields", comm, step=0)
        fh.write("step_no", 0)
        fh.write(
            "rho", np.full((4, 4, 4), float(comm.rank)),
            global_dims=(8, 4, 4), offsets=(comm.rank * 4, 0, 0),
        )
        yield from fh.close()

    world.spawn(app)
    eng.run()
    merged = {}
    for by_var in predata.service.results[op.name][0].values():
        if "rho" in by_var:
            lo, slab = by_var["rho"]
            merged[lo] = slab
    full = np.concatenate([merged[lo] for lo in sorted(merged)])
    assert full.shape == (8, 4, 4)
    assert (full[:4] == 0.0).all() and (full[4:] == 1.0).all()


def test_write_validation():
    eng, machine, world, adios = build()
    errors = []

    def app(comm):
        fh = adios.open("fields", comm, 0)
        try:
            fh.write("nope", 1)
        except KeyError as exc:
            errors.append(("unknown", exc))
        try:
            fh.write("rho", np.zeros((2, 2, 2)))  # missing placement
        except ConfigError as exc:
            errors.append(("placement", exc))
        try:
            fh.write("step_no", 1, offsets=(0,))  # scalar + placement
        except ConfigError as exc:
            errors.append(("scalar", exc))
        try:
            fh.write("rho", np.zeros((2, 2)), global_dims=(4, 2, 2),
                     offsets=(0, 0, 0))  # rank mismatch
        except ConfigError as exc:
            errors.append(("rank", exc))
        return
        yield

    world.spawn(app)
    eng.run()
    kinds = [k for k, _ in errors]
    assert kinds.count("unknown") == 2 or "unknown" in kinds
    assert "placement" in kinds and "scalar" in kinds and "rank" in kinds


def test_close_twice_and_write_after_close():
    eng, machine, world, adios = build(nprocs=1)
    caught = []

    def app(comm):
        fh = adios.open("fields", comm, 0)
        fh.write("step_no", 0)
        fh.write("rho", np.zeros((4, 4, 4)), global_dims=(4, 4, 4),
                 offsets=(0, 0, 0))
        yield from fh.close()
        try:
            fh.write("step_no", 1)
        except ConfigError:
            caught.append("write-after-close")
        try:
            yield from fh.close()
        except ConfigError:
            caught.append("double-close")

    world.spawn(app)
    eng.run()
    assert caught == ["write-after-close", "double-close"]


def test_null_method_writes_nothing():
    eng, machine, world, adios = build(method="NULL", nprocs=1)
    times = {}

    def app(comm):
        fh = adios.open("fields", comm, 0)
        fh.write("step_no", 0)
        fh.write("rho", np.zeros((4, 4, 4)), global_dims=(4, 4, 4),
                 offsets=(0, 0, 0))
        t = yield from fh.close()
        times[comm.rank] = t

    world.spawn(app)
    eng.run()
    assert times[0] == 0.0
    assert machine.filesystem.bytes_written == 0.0


def test_transport_cached_per_group():
    _, _, _, adios = build()
    assert adios.transport_for("fields") is adios.transport_for("fields")
