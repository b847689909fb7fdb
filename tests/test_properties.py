"""Cross-cutting property-based tests (hypothesis)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import run_staging_pipeline
from repro.adios import BPWriter, ChunkMeta, GroupDef, OutputStep, VarDef, VarKind
from repro.dataspaces import Region
from repro.machine import Network, NetworkConfig, TorusTopology
from repro.mpi import World
from repro.operators import SampleSortOperator
from repro.sim import Engine, SharedBandwidth


# ------------------------------------------------- MPI vs local numpy
@settings(max_examples=25, deadline=None)
@given(
    nranks=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=999),
)
def test_allreduce_equals_local_reduction(nranks, seed):
    eng = Engine()
    topo = TorusTopology(max(nranks, 2))
    world = World(eng, Network(eng, topo, NetworkConfig()),
                  list(range(nranks)))
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 2.0, size=(nranks, 3))
    out = {}

    def main(comm):
        res = yield from comm.allreduce(values[comm.rank])
        out[comm.rank] = res

    world.spawn(main)
    eng.run()
    expected = np.sum(values, axis=0)
    for r in range(nranks):
        np.testing.assert_allclose(out[r], expected, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    nranks=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=999),
)
def test_reduction_folds_in_rank_order_bit_for_bit(nranks, seed):
    # Over ~30 decades float addition is far from associative: any
    # other fold order (pairwise, tree, reversed) changes low bits, so
    # equality here pins the order itself.
    eng = Engine()
    topo = TorusTopology(max(nranks, 2))
    world = World(eng, Network(eng, topo, NetworkConfig()),
                  list(range(nranks)))
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], size=(nranks, 6)) * 10.0 ** rng.uniform(
        -15, 15, size=(nranks, 6)
    )
    out = {}

    def main(comm):
        everywhere = yield from comm.allreduce(values[comm.rank])
        at_root = yield from comm.reduce(values[comm.rank], root=nranks - 1)
        out[comm.rank] = (everywhere, at_root)

    world.spawn(main)
    eng.run()
    expected = functools.reduce(np.add, list(values))
    for r in range(nranks):
        assert np.array_equal(out[r][0], expected)
    assert np.array_equal(out[nranks - 1][1], expected)


@settings(max_examples=20, deadline=None)
@given(
    nranks=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=999),
)
def test_alltoall_is_a_transpose(nranks, seed):
    eng = Engine()
    topo = TorusTopology(max(nranks, 2))
    world = World(eng, Network(eng, topo, NetworkConfig()),
                  list(range(nranks)))
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 100, size=(nranks, nranks))
    out = {}

    def main(comm):
        row = [int(v) for v in matrix[comm.rank]]
        got = yield from comm.alltoall(row)
        out[comm.rank] = got

    world.spawn(main)
    eng.run()
    for r in range(nranks):
        assert out[r] == [int(v) for v in matrix[:, r]]


# --------------------------------------------------------- conservation
@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e6),
                   min_size=1, max_size=8),
)
def test_pipe_conserves_bytes(sizes):
    eng = Engine()
    pipe = SharedBandwidth(eng, rate=1e6)

    def mover(size):
        yield pipe.transfer(size)

    for s in sizes:
        eng.process(mover(s))
    eng.run()
    assert pipe.bytes_moved == pytest.approx(sum(sizes))
    assert pipe.active_transfers == 0


@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1e3, max_value=1e6),
                   min_size=2, max_size=6),
)
def test_pipe_sharing_never_beats_serial(sizes):
    """Concurrent transfers finish no earlier than the serial total."""
    eng = Engine()
    pipe = SharedBandwidth(eng, rate=1e6)

    def mover(size):
        yield pipe.transfer(size)

    for s in sizes:
        eng.process(mover(s))
    eng.run()
    assert eng.now >= sum(sizes) / 1e6 * (1 - 1e-9)


# --------------------------------------------------------------- BP
@settings(max_examples=15, deadline=None)
@given(
    nsteps=st.integers(min_value=1, max_value=3),
    nprocs=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=99),
)
def test_bp_multistep_property(nsteps, nprocs, seed):
    g = GroupDef("f", (VarDef("v", "float64",
                              VarKind.GLOBAL_ARRAY, ndim=2),))
    rng = np.random.default_rng(seed)
    n = 3
    gx = nprocs * n
    w = BPWriter("f.bp", g)
    fulls = []
    for s in range(nsteps):
        full = rng.random((gx, 4))
        fulls.append(full)
        for r in range(nprocs):
            lo = r * n
            w.append_step(OutputStep(
                group=g, step=s, rank=r, values={"v": full[lo : lo + n]},
                chunks={"v": ChunkMeta((gx, 4), (lo, 0))},
            ))
    f = w.close()
    assert sorted({pg.step for pg in f.pgs}) == list(range(nsteps))
    for s in range(nsteps):
        np.testing.assert_array_equal(f.read_global_array("v", s), fulls[s])
        assert f.extents_for("v", s) == nprocs


# ------------------------------------------------------------ Region
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_region_intersection_properties(data):
    def draw_region():
        lb = tuple(
            data.draw(st.integers(min_value=0, max_value=20))
            for _ in range(2)
        )
        ub = tuple(
            l + data.draw(st.integers(min_value=1, max_value=10)) for l in lb
        )
        return Region(lb, ub)

    a, b = draw_region(), draw_region()
    ab = a.intersect(b)
    ba = b.intersect(a)
    assert ab == ba  # commutative
    if ab is not None:
        # contained in both
        assert a.intersect(ab) == ab
        assert b.intersect(ab) == ab
        assert ab.cells <= min(a.cells, b.cells)
    # self-intersection is identity
    assert a.intersect(a) == a


# ------------------------------------------------ pipeline determinism
def test_staging_pipeline_fully_deterministic():
    def run():
        op = SampleSortOperator("electrons", key_column=0)
        _, _, predata, visible = run_staging_pipeline([op])
        rep = predata.service.step_report(0)
        return (
            rep.latency, rep.fetch, rep.shuffle, rep.reduce,
            tuple(sorted(visible.values())),
        )

    assert run() == run()
