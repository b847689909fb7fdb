"""Library performance benchmarks (host-side throughput).

Unlike the figure benchmarks (which measure *simulated* seconds once),
these measure real wall-clock throughput of the reproduction's hot
paths — the numbers a developer watches for regressions: the
discrete-event engine's event rate, fluid-pipe transfers, simulated-MPI
collectives, FFS encode/decode bandwidth, BP assembly, bitmap index
build/query, and the sample-sort operator.
"""

import numpy as np

from repro.adios import BPWriter, ChunkMeta, GroupDef, OutputStep, VarDef, VarKind
from repro.ffs import Schema, decode, encode
from repro.machine import Network, NetworkConfig, TorusTopology
from repro.mpi import World
from repro.operators.bitmap import BitmapIndex
from repro.sim import Engine, SharedBandwidth


def test_engine_event_throughput(benchmark):
    """Timeout-chain processing rate (events/second of host time)."""

    def run():
        eng = Engine()

        def ticker(env):
            for _ in range(20_000):
                yield env.timeout(1.0)

        eng.process(ticker(eng))
        eng.run()
        return eng.now

    result = benchmark(run)
    assert result == 20_000.0


def test_pipe_transfer_throughput(benchmark):
    """Fluid-pipe membership churn with many concurrent transfers."""

    def run():
        eng = Engine()
        pipe = SharedBandwidth(eng, rate=1e9)

        def mover(env, size):
            yield pipe.transfer(size)

        for i in range(400):
            eng.process(mover(eng, 1e6 + i))
        eng.run()
        return pipe.bytes_moved

    moved = benchmark(run)
    assert moved > 4e8


def test_mpi_collective_throughput(benchmark):
    """Allreduce rounds across a 16-rank world."""

    def run():
        eng = Engine()
        topo = TorusTopology(16)
        world = World(eng, Network(eng, topo, NetworkConfig()), list(range(16)))
        payload = np.ones(64)

        def main(comm):
            total = None
            for _ in range(50):
                total = yield from comm.allreduce(payload)
            return float(total[0])

        world.spawn(main)
        eng.run()
        return eng.now

    benchmark(run)


def test_ffs_encode_decode_bandwidth(benchmark):
    schema = Schema.of("bench", step="int64", data=("float64", (-1, 8)))
    payload = {"step": 1, "data": np.random.default_rng(0).random((20_000, 8))}

    def run():
        buf = encode(schema, payload, attrs={"rank": 0})
        _, values, _ = decode(buf)
        return values["data"].shape

    shape = benchmark(run)
    assert shape == (20_000, 8)


def test_bp_global_assembly(benchmark):
    g = GroupDef("f", (VarDef("v", "float64",
                              VarKind.GLOBAL_ARRAY, ndim=3),))
    n, nprocs = 16, 16
    gx = n * nprocs
    full = np.random.default_rng(1).random((gx, n, n))
    w = BPWriter("bench.bp", g)
    for r in range(nprocs):
        lo = r * n
        w.append_step(OutputStep(
            group=g, step=0, rank=r, values={"v": full[lo : lo + n]},
            chunks={"v": ChunkMeta((gx, n, n), (lo, 0, 0))},
        ))
    f = w.close()

    def run():
        return f.read_global_array("v", 0)

    out = benchmark(run)
    np.testing.assert_array_equal(out, full)


def test_bitmap_build_and_query(benchmark):
    values = np.random.default_rng(2).normal(size=100_000)

    def run():
        idx = BitmapIndex(values, bins=64)
        res = idx.query(-0.5, 0.5)
        return res.nrows

    nrows = benchmark(run)
    assert nrows == int(((values >= -0.5) & (values <= 0.5)).sum())


def test_sample_sort_functional_throughput(benchmark):
    """The sort operator's numpy kernels on 100k rows."""
    from repro.operators import SampleSortOperator
    from repro.core.operator import OperatorContext

    op = SampleSortOperator("electrons", key_column=0)
    g = GroupDef("p", (VarDef("electrons", "float64",
                              VarKind.LOCAL_ARRAY, ndim=2),))
    rng = np.random.default_rng(3)
    steps = []
    for r in range(8):
        data = rng.random((12_500, 8))
        data[:, 0] = rng.permutation(100_000)[:12_500]
        steps.append(OutputStep(group=g, step=0, rank=r,
                                values={"electrons": data}))

    def run():
        pool = op.aggregate([op.partial_calculate(s) for s in steps])
        ctx = OperatorContext(rank=0, nworkers=4, step=0, aggregated=pool)
        op.initialize(ctx)
        emits = []
        for s in steps:
            emits.extend(op.map(ctx, s))
        groups = {}
        for e in emits:
            groups.setdefault(int(e.tag) % 4, []).append(e.value)
        total = 0
        for tag, values in groups.items():
            total += len(op.reduce(ctx, tag, values))
        return total

    total = benchmark(run)
    assert total == 100_000
