"""Tests for the simulated MPI layer: p2p, collectives, requests."""

import numpy as np
import pytest

from repro.machine import Machine, Network, NetworkConfig, TorusTopology, TESTING_TINY
from repro.mpi import MAX, MIN, SUM, World, nbytes_of
from repro.sim import Engine, SimulationError


def make_world(nranks=4, contended=False, **netcfg):
    eng = Engine()
    topo = TorusTopology(max(nranks, 2))
    net = Network(eng, topo, NetworkConfig(**netcfg))
    world = World(eng, net, list(range(nranks)), contended=contended)
    return eng, world


# ------------------------------------------------------------- p2p
def test_send_recv_roundtrip():
    eng, world = make_world(2)
    received = {}

    def main(comm):
        if comm.rank == 0:
            payload = np.arange(10.0)
            yield from comm.send(payload, dest=1, tag=7)
        else:
            data = yield from comm.recv(source=0, tag=7)
            received["data"] = data

    world.spawn(main)
    eng.run()
    np.testing.assert_array_equal(received["data"], np.arange(10.0))


def test_send_recv_time_scales_with_size():
    def elapsed(nbytes):
        eng, world = make_world(2, link_bandwidth=1e6, latency=0.0,
                                hop_latency=0.0)
        t = {}

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(int(nbytes // 8)), dest=1)
            else:
                yield from comm.recv()
                t["end"] = comm.env.now

        world.spawn(main)
        eng.run()
        return t["end"]

    assert elapsed(1e6) == pytest.approx(1.0, rel=0.05)
    assert elapsed(2e6) == pytest.approx(2.0, rel=0.05)


def test_isend_overlaps_compute():
    eng, world = make_world(2, link_bandwidth=1e6, latency=0.0, hop_latency=0.0)
    log = {}

    def main(comm):
        if comm.rank == 0:
            req = comm.isend(np.zeros(125_000), dest=1)  # 1 MB -> 1 s wire
            log["polled_in_flight"] = req.test()
            yield from comm.sleep(1.0)  # overlapping work
            yield from req.wait()
            log["polled_done"] = req.test()
            log["sender_done"] = comm.env.now
        else:
            yield from comm.recv()

    world.spawn(main)
    eng.run()
    # isend overlapped with sleep: total ~1 s, not 2 s.
    assert log["sender_done"] == pytest.approx(1.0, rel=0.1)
    # mpi4py-style polling: False while on the wire, True once complete
    assert (log["polled_in_flight"], log["polled_done"]) == (False, True)


def test_recv_with_status():
    eng, world = make_world(3)
    got = {}

    def main(comm):
        if comm.rank == 2:
            payload, src, tag = yield from comm.recv_with_status()
            got["status"] = (payload, src, tag)
        elif comm.rank == 1:
            yield from comm.send("hello", dest=2, tag=42)

    world.spawn(main)
    eng.run()
    assert got["status"] == ("hello", 1, 42)


def test_send_to_invalid_rank():
    eng, world = make_world(2)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send("x", dest=5)

    procs = world.spawn(main)
    eng.run()
    assert not procs[0].ok
    assert isinstance(procs[0].value, SimulationError)


# --------------------------------------------------------- collectives
def test_barrier_synchronises():
    eng, world = make_world(4)
    after = []

    def main(comm):
        yield from comm.sleep(comm.rank * 1.0)  # skewed arrivals
        yield from comm.barrier()
        after.append(comm.env.now)

    world.spawn(main)
    eng.run()
    assert all(t >= 3.0 for t in after)
    assert max(after) - min(after) < 1e-6


def test_bcast():
    eng, world = make_world(4)
    got = []

    def main(comm):
        data = np.arange(5) if comm.rank == 1 else None
        out = yield from comm.bcast(data, root=1)
        got.append(out)

    world.spawn(main)
    eng.run()
    assert len(got) == 4
    for arr in got:
        np.testing.assert_array_equal(arr, np.arange(5))


def test_reduce_sum_scalar():
    eng, world = make_world(4)
    results = {}

    def main(comm):
        out = yield from comm.reduce(comm.rank + 1, op=SUM, root=0)
        results[comm.rank] = out

    world.spawn(main)
    eng.run()
    assert results[0] == 10
    assert results[1] is None


def test_allreduce_array_min_max():
    eng, world = make_world(3)
    mins, maxs = [], []

    def main(comm):
        arr = np.array([comm.rank, 10 - comm.rank], dtype=float)
        lo = yield from comm.allreduce(arr, op=MIN)
        hi = yield from comm.allreduce(arr, op=MAX)
        mins.append(lo)
        maxs.append(hi)

    world.spawn(main)
    eng.run()
    for lo, hi in zip(mins, maxs):
        np.testing.assert_array_equal(lo, [0.0, 8.0])
        np.testing.assert_array_equal(hi, [2.0, 10.0])


def test_gather_and_allgather():
    eng, world = make_world(4)
    out = {}

    def main(comm):
        g = yield from comm.gather(comm.rank * 2, root=3)
        ag = yield from comm.allgather(comm.rank)
        out[comm.rank] = (g, ag)

    world.spawn(main)
    eng.run()
    assert out[3][0] == [0, 2, 4, 6]
    assert out[0][0] is None
    for r in range(4):
        assert out[r][1] == [0, 1, 2, 3]


def test_scatter():
    eng, world = make_world(4)
    out = {}

    def main(comm):
        values = [f"item{i}" for i in range(4)] if comm.rank == 0 else None
        item = yield from comm.scatter(values, root=0)
        out[comm.rank] = item

    world.spawn(main)
    eng.run()
    assert out == {r: f"item{r}" for r in range(4)}


def test_scatter_wrong_length_fails():
    eng, world = make_world(3)

    def main(comm):
        values = ["a"] if comm.rank == 0 else None
        yield from comm.scatter(values, root=0)

    procs = world.spawn(main)
    eng.run()
    assert any(not p.ok for p in procs)


def test_alltoall_personalised_exchange():
    eng, world = make_world(3)
    out = {}

    def main(comm):
        sends = [f"{comm.rank}->{d}" for d in range(3)]
        recvd = yield from comm.alltoall(sends)
        out[comm.rank] = recvd

    world.spawn(main)
    eng.run()
    assert out[0] == ["0->0", "1->0", "2->0"]
    assert out[2] == ["0->2", "1->2", "2->2"]


def test_alltoall_with_numpy_rows_reassembles_data():
    eng, world = make_world(4)
    out = {}

    def main(comm):
        rows = [np.full(3, 10 * comm.rank + d, dtype=np.int64) for d in range(4)]
        recvd = yield from comm.alltoall(rows)
        out[comm.rank] = np.concatenate(recvd)

    world.spawn(main)
    eng.run()
    np.testing.assert_array_equal(
        out[1], np.concatenate([np.full(3, 10 * s + 1) for s in range(4)])
    )


def test_alltoall_requires_size_payloads():
    eng, world = make_world(3)

    def main(comm):
        yield from comm.alltoall(["too", "few"])

    procs = world.spawn(main)
    eng.run()
    assert all(not p.ok for p in procs) or any(
        isinstance(p.value, ValueError) for p in procs
    )


def test_collective_mismatch_detected():
    eng, world = make_world(2)

    def main(comm):
        if comm.rank == 0:
            yield from comm.barrier()
        else:
            yield from comm.bcast("x", root=1)

    procs = world.spawn(main)
    eng.run()
    assert any(
        not p.ok and isinstance(p.value, SimulationError) for p in procs
    )


def test_collective_timing_grows_with_size():
    def run(nbytes):
        eng, world = make_world(4, link_bandwidth=1e6, latency=0.0,
                                hop_latency=0.0)
        t = {}

        def main(comm):
            yield from comm.allreduce(np.zeros(int(nbytes // 8)))
            t["end"] = comm.env.now

        world.spawn(main)
        eng.run()
        return t["end"]

    assert run(8e6) > run(8e3) * 10


def test_contended_collectives_functional_identical():
    for contended in (False, True):
        eng, world = make_world(4, contended=contended)
        out = {}

        def main(comm):
            s = yield from comm.allreduce(float(comm.rank))
            out[comm.rank] = s

        world.spawn(main)
        eng.run()
        assert all(v == pytest.approx(6.0) for v in out.values())


def test_world_join_returns_rank_values():
    eng, world = make_world(3)

    def main(comm):
        yield from comm.sleep(0.1)
        return comm.rank * 7

    world.spawn(main)

    def waiter(env):
        vals = yield from world.join()
        return vals

    p = eng.process(waiter(eng))
    eng.run()
    assert p.value == [0, 7, 14]


def test_world_on_machine_compute_uses_node():
    eng = Engine()
    m = Machine(eng, 4, spec=TESTING_TINY)
    world = World(eng, m.network, [0, 1, 2, 3], node_lookup=m.node)
    t = {}

    def main(comm):
        yield from comm.compute(1e9)  # 1 Gflop on a 1 Gflop/s core = 1 s
        t[comm.rank] = comm.env.now

    world.spawn(main)
    eng.run()
    assert all(v == pytest.approx(1.0) for v in t.values())
    assert m.node(0).busy_seconds == pytest.approx(1.0)


# ------------------------------------------------------------- sizes
def test_nbytes_of_basics():
    assert nbytes_of(np.zeros(10, dtype=np.float64)) == 80
    assert nbytes_of(b"abcd") == 4
    assert nbytes_of("abcd") == 4
    assert nbytes_of(3.14) == 8
    assert nbytes_of(None) == 0
    assert nbytes_of([np.zeros(2), np.zeros(3)]) >= 40
    assert nbytes_of({"a": 1}) > 8
