"""Coverage for remaining public surfaces across packages."""

import numpy as np
import pytest

from repro.adios import GroupDef, VarDef
from repro.machine import (
    FileSystemConfig,
    Machine,
    ParallelFileSystem,
    TESTING_TINY,
)
from repro.mpi import World, nbytes_of
from repro.machine import Network, NetworkConfig, TorusTopology
from repro.sim import Engine


# ----------------------------------------------------------- datasize
def test_nbytes_of_object_with_nbytes_attr():
    class Payload:
        nbytes = 1234

    assert nbytes_of(Payload()) == 1234.0


def test_nbytes_of_plain_object_uses_dict():
    class Thing:
        def __init__(self):
            self.a = np.zeros(10)
            self.b = 3

    assert nbytes_of(Thing()) >= 80 + 8


def test_nbytes_of_sets_and_complex():
    assert nbytes_of({1.0, 2.0}) >= 16
    assert nbytes_of(1 + 2j) == 8.0
    assert nbytes_of(memoryview(b"abcdef")) == 6.0


# -------------------------------------------------------------- machine
def test_machine_core_counts_and_repr():
    eng = Engine()
    m = Machine(eng, 4, 2, spec=TESTING_TINY)
    assert m.compute_cores == 8  # 4 nodes x 2 cores
    assert m.staging_cores == 4
    assert "testing-tiny" in repr(m)
    assert m.node(0) is m.node(0)  # cached


def test_machine_without_staging_ratio_infinite():
    eng = Engine()
    m = Machine(eng, 2, 0, spec=TESTING_TINY)
    assert m.staging_ratio() == float("inf")


def test_fs_read_parallel_clients_faster():
    def t_read(nclients):
        eng = Engine()
        fs = ParallelFileSystem(
            eng,
            FileSystemConfig(aggregate_bandwidth=10e9,
                             client_bandwidth=1e8,
                             metadata_latency=0.0,
                             n_osts=100, stripe_count=100),
            interference=False,
        )

        # nclients concurrent one-client reads share the gigabyte
        procs = [eng.process(fs.read(1e9 / nclients)) for _ in range(nclients)]
        eng.run()
        return max(p.value for p in procs)

    assert t_read(16) < t_read(1) / 8


def test_fs_degradation_piecewise_constant():
    eng = Engine()
    fs = ParallelFileSystem(eng, FileSystemConfig(), interference=True)
    a = fs._degradation(1.0)
    b = fs._degradation(4.9)
    c = fs._degradation(5.1)
    assert a == b  # same slot
    assert 0.05 <= c <= 1.0


# -------------------------------------------------------------- groups
def test_groupdef_lookup_errors():
    g = GroupDef("g", (VarDef("a", "f8"),))
    with pytest.raises(KeyError):
        g.var("b")
    assert g.var_names == ["a"]


# ------------------------------------------------------------ world misc
def test_comm_repr_and_env():
    eng = Engine()
    topo = TorusTopology(2)
    world = World(eng, Network(eng, topo, NetworkConfig()), [0, 1])
    c = world.comm(1)
    assert "rank=1" in repr(c)
    assert c.env is eng
    assert c.size == 2
    assert repr(world).startswith("World(")


