"""Tests for Node memory/compute and the parallel file system."""

import pytest

from repro.machine import (
    FileSystemConfig,
    MemoryError_,
    Node,
    NodeConfig,
    ParallelFileSystem,
)
from repro.sim import Engine


# ------------------------------------------------------------------ Node
def test_memory_ledger():
    eng = Engine()
    node = Node(eng, 0, NodeConfig(memory_bytes=1000.0))
    node.allocate(400.0)
    node.allocate(500.0)
    assert node.memory_used == pytest.approx(900.0)
    assert node.memory_free == pytest.approx(100.0)
    node.free(500.0)
    assert node.memory_used == pytest.approx(400.0)
    assert node.memory_high_water == pytest.approx(900.0)


def test_memory_overflow_raises():
    eng = Engine()
    node = Node(eng, 0, NodeConfig(memory_bytes=100.0))
    with pytest.raises(MemoryError_):
        node.allocate(101.0)


def test_memory_free_more_than_allocated():
    eng = Engine()
    node = Node(eng, 0)
    node.allocate(10.0)
    with pytest.raises(RuntimeError):
        node.free(20.0)


def test_compute_time_scales_with_cores():
    eng = Engine()
    node = Node(eng, 0, NodeConfig(cores=4, core_flops=1e9))
    assert node.compute_time(4e9, cores=1) == pytest.approx(4.0)
    assert node.compute_time(4e9, cores=4) == pytest.approx(1.0)
    # requesting more cores than present clamps
    assert node.compute_time(4e9, cores=100) == pytest.approx(1.0)


def test_compute_occupies_cores():
    eng = Engine()
    node = Node(eng, 0, NodeConfig(cores=1, core_flops=1e9))
    ends = []

    def work(env):
        yield from node.compute(1e9)
        ends.append(env.now)

    eng.process(work(eng))
    eng.process(work(eng))
    eng.run()
    # Single core serialises the two 1-second jobs.
    assert sorted(ends) == [pytest.approx(1.0), pytest.approx(2.0)]
    assert node.busy_seconds == pytest.approx(2.0)


def test_node_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        NodeConfig(cores=0)
    node = Node(eng, 0)
    with pytest.raises(ValueError):
        node.allocate(-1.0)
    with pytest.raises(ValueError):
        node.compute_time(-1.0)


# ---------------------------------------------------------- file system
def quiet_fs(eng, **cfg):
    defaults = dict(
        aggregate_bandwidth=1e9,
        client_bandwidth=1e9,
        n_osts=4,
        stripe_count=4,
        metadata_latency=0.0,
        extent_overhead=0.001,
    )
    defaults.update(cfg)
    return ParallelFileSystem(eng, FileSystemConfig(**defaults), interference=False)


def writers(eng, fs, n, nbytes):
    """*n* concurrent one-client ``write()`` calls sharing *nbytes*: how
    a many-writer job (e.g. ``SyncMPIIO``'s ranks) reaches the file
    system.  Returns their processes, valued with each write's seconds."""
    return [eng.process(fs.write(nbytes / n)) for _ in range(n)]


def test_write_time_aggregate_bound():
    eng = Engine()
    fs = quiet_fs(eng)
    procs = writers(eng, fs, 64, 1e9)
    eng.run()
    for p in procs:
        assert p.value == pytest.approx(1.0, rel=0.05)
    assert fs.bytes_written == pytest.approx(1e9)


def test_write_time_client_bound():
    eng = Engine()
    fs = quiet_fs(eng, aggregate_bandwidth=100e9, client_bandwidth=1e8, n_osts=1000)

    def proc():
        # one client capped at 100 MB/s writing 1 GB -> 10 s
        t = yield from fs.write(1e9)
        return t

    p = eng.process(proc())
    eng.run()
    assert p.value == pytest.approx(10.0, rel=0.05)


def test_concurrent_writers_share_aggregate():
    eng = Engine()
    fs = quiet_fs(eng)
    done = {}

    def proc(name):
        yield eng.all_of(writers(eng, fs, 32, 1e9))
        done[name] = eng.now

    eng.process(proc("a"))
    eng.process(proc("b"))
    eng.run()
    assert done["a"] == pytest.approx(2.0, rel=0.05)
    assert done["b"] == pytest.approx(2.0, rel=0.05)


def test_metadata_latency_counted():
    eng = Engine()
    fs = quiet_fs(eng, metadata_latency=0.5)

    def proc():
        t0 = eng.now
        for _ in range(3):
            yield from fs.write(0.0)
        return eng.now - t0

    p = eng.process(proc())
    eng.run()
    assert p.value == pytest.approx(1.5)
    assert fs.metadata_ops == 3


def test_read_extent_overhead_dominates_scattered_layout():
    eng = Engine()
    fs = quiet_fs(eng, extent_overhead=0.001)
    times = {}

    def proc(name, extents):
        t = yield from fs.read(1e8, extents=extents)
        times[name] = t

    eng.process(proc("merged", 8))
    eng.run()
    eng2 = Engine()
    fs2 = quiet_fs(eng2, extent_overhead=0.001)

    def proc2():
        t = yield from fs2.read(1e8, extents=40960)
        times["unmerged"] = t

    eng2.process(proc2())
    eng2.run()
    # Scattered layout pays tens of seconds of extent costs.
    assert times["unmerged"] > times["merged"] * 5


def test_interference_reduces_effective_bandwidth():
    eng = Engine()
    fs = ParallelFileSystem(
        eng,
        FileSystemConfig(
            aggregate_bandwidth=1e9,
            client_bandwidth=1e9,
            metadata_latency=0.0,
            interference_mean=0.4,
            interference_sigma=0.2,
        ),
        interference=True,
    )

    procs = writers(eng, fs, 64, 1e9)
    eng.run()
    assert max(p.value for p in procs) > 1.1  # slower than the uncontended 1.0 s


def test_interference_is_deterministic():
    def run():
        eng = Engine()
        fs = ParallelFileSystem(eng, FileSystemConfig(
            aggregate_bandwidth=1e9, metadata_latency=0.0), interference=True)
        procs = writers(eng, fs, 64, 5e9)
        eng.run()
        return [p.value for p in procs]

    assert run() == pytest.approx(run())


def test_fs_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        FileSystemConfig(aggregate_bandwidth=0)
    with pytest.raises(ValueError):
        FileSystemConfig(interference_mean=1.5)
    fs = quiet_fs(eng)
    with pytest.raises(ValueError):
        eng.run_until_process(eng.process(fs.read(10.0, extents=0)))
