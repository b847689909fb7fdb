"""Tests for the simulated MPI layer: the six collectives and their timing."""

import functools
from collections import OrderedDict
from math import ceil, log2

import numpy as np
import pytest

from repro.machine import Machine, Network, NetworkConfig, TorusTopology, TESTING_TINY
from repro.core.operator import charge
from repro.mpi import World, nbytes_of
from repro.sim import Engine, Interrupt, SimulationError


def make_world(nranks=4, rank_nodes=None, **netcfg):
    eng = Engine()
    topo = TorusTopology(max(nranks, 2))
    net = Network(eng, topo, NetworkConfig(**netcfg))
    world = World(eng, net, rank_nodes or list(range(nranks)))
    return eng, world


def run_ranks(nranks, body, **world_kw):
    """Run ``body(comm)`` on every rank; returns ``{rank: return value}``."""
    eng, world = make_world(nranks, **world_kw)
    procs = world.spawn(body)
    eng.run()
    for p in procs:
        if not p.ok:
            raise p.value
    return {r: p.value for r, p in enumerate(procs)}


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
        out = yield from comm.reduce(comm.rank + 1, root=0)
        results[comm.rank] = out

    world.spawn(main)
    eng.run()
    assert results[0] == 10
    assert results[1] is None


def test_allreduce_array_sum():
    eng, world = make_world(3)
    sums = []

    def main(comm):
        arr = np.array([comm.rank, 10 - comm.rank], dtype=float)
        sums.append((yield from comm.allreduce(arr)))

    world.spawn(main)
    eng.run()
    assert len(sums) == 3
    for total in sums:
        np.testing.assert_array_equal(total, [3.0, 27.0])


def test_allgather():
    eng, world = make_world(4)
    out = {}

    def main(comm):
        out[comm.rank] = yield from comm.allgather(comm.rank)

    world.spawn(main)
    eng.run()
    for r in range(4):
        assert out[r] == [0, 1, 2, 3]


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


def test_one_member_world_is_charged_the_model_for_model_size():
    # no wire phase to realise, so a timer of collective_time at model_size
    eng = Engine()
    net = Network(eng, TorusTopology(2), NetworkConfig(link_bandwidth=1e6))
    world = World(eng, net, [0], model_size=64)
    payload = np.zeros(1000)

    def main(comm):
        yield from comm.allreduce(payload)
        return eng.now

    (p,) = world.spawn(main)
    eng.run()
    want = net.collective_time("allreduce", 64, payload.nbytes)
    assert want > 0 and p.value == want


@pytest.mark.parametrize("model_size", [None, 64])
def test_barrier_costs_two_latencies_per_tree_level(model_size):
    eng = Engine()
    net = Network(eng, TorusTopology(4), NetworkConfig(latency=3e-6))
    world = World(eng, net, [0, 1, 2, 3], model_size=model_size)

    def main(comm):
        yield from comm.barrier()
        return eng.now

    procs = world.spawn(main)
    eng.run()
    levels = ceil(log2(model_size or 4))
    assert {p.value for p in procs} == {2 * 3e-6 * levels}


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


def slow_allreduce_world(nranks=4):
    """World whose 8 kB allreduce spends ~16 ms on the wire."""
    return make_world(nranks, link_bandwidth=1e6, latency=1e-6, hop_latency=0.0)


def test_rank_deactivated_during_the_wire_phase_completes_among_survivors():
    def run(kill_at):
        eng, world = slow_allreduce_world()
        out = {}

        def main(comm):
            total = yield from comm.allreduce(np.full(1000, float(comm.rank)))
            out[comm.rank] = (eng.now, total[0])

        procs = world.spawn(main)

        def crash():
            yield eng.timeout(kill_at)
            assert world._collectives[0].started  # the pipes are occupied
            procs[3].interrupt("node died")
            world.deactivate_rank(3)

        if kill_at is not None:
            eng.process(crash())
        eng.run()  # a second trigger of the collective would raise out of here
        assert world._collectives == {}
        return out

    whole = run(None)
    assert whole == {r: (whole[0][0], 6.0) for r in range(4)}
    # the exchange already under way is not repriced; the dead rank's
    # contribution is dropped from what the survivors receive
    assert run(0.004) == {r: (whole[0][0], 3.0) for r in range(3)}


def test_reset_collectives_during_the_wire_phase_starts_a_clean_epoch():
    eng, world = slow_allreduce_world()
    out = {}

    def main(comm):
        try:
            yield from comm.allreduce(np.full(1000, 1.0))
            raise AssertionError("the abandoned epoch must not resume a rank")
        except Interrupt:
            pass
        total = yield from comm.allreduce(np.full(1000, float(comm.rank)))
        out[comm.rank] = (eng.now, total[0])

    procs = world.spawn(main)
    stale = {}

    def recover():
        yield eng.timeout(0.004)
        stale["state"] = world._collectives[0]
        assert stale["state"].started
        world.reset_collectives()
        for p in procs:
            p.interrupt("step restarted")

    eng.process(recover())
    eng.run()
    # the in-flight exchange of the old epoch finished into its own state
    # and left the new epoch's seq-0 slot, and its pipes' ranks, alone
    assert stale["state"].done.triggered and world._collectives == {}
    assert {v[1] for v in out.values()} == {6.0} and len(out) == 4
    (end,) = {v[0] for v in out.values()}
    fresh_eng, fresh = slow_allreduce_world()
    fresh.spawn(lambda comm: comm.allreduce(np.full(1000, 1.0)))
    fresh_eng.run()
    # the new exchange shared the NIC pipes with what was left of the old one
    assert 0.004 + fresh_eng.now < end < 0.004 + 2 * fresh_eng.now


def _allreduce_among_survivors(kill_at):
    """Rank 3 dies at *kill_at* (None: never); the others run two allreduce
    epochs with a ``reset_collectives()`` between them.  Returns what the
    survivors received, the world, and each node's NIC RX pipe bytes."""
    eng, world = slow_allreduce_world()
    out = {}

    def main(comm):
        for _epoch in range(2):
            if comm.rank not in world.active_ranks:
                return  # its node is dead
            total = yield from comm.allreduce(np.full(1000, float(comm.rank)))
            out.setdefault(comm.rank, []).append((eng.now, total[0]))
            yield from comm.sleep(1.0)

    def kill():
        yield eng.timeout(kill_at)
        procs[3].interrupt("node died")
        world.deactivate_rank(3)

    def new_epoch():
        yield eng.timeout(0.5)  # between the two epochs: nothing in flight
        assert world._collectives == {}
        world.reset_collectives()

    if kill_at == 0:
        world.deactivate_rank(3)
    procs = world.spawn(main)
    if kill_at:
        eng.process(kill())
    eng.process(new_epoch())
    eng.run()
    return out, world, [world.network.nic(n).rx.bytes_moved for n in range(4)]


def test_a_rank_deactivated_before_a_collective_is_left_out_of_its_pipes():
    whole, _, whole_rx = _allreduce_among_survivors(None)
    assert {r: [v for _t, v in got] for r, got in whole.items()} == {
        r: [6.0, 6.0] for r in range(4)
    }
    out, world, rx = _allreduce_among_survivors(0)
    assert world.active_ranks == [0, 1, 2]
    # both epochs complete among the survivors, on survivor data only
    assert {r: [v for _t, v in got] for r, got in out.items()} == {
        r: [3.0, 3.0] for r in range(3)
    }
    # the dead rank's node hosts no survivor: its pipes never saw a byte
    assert rx[3] == 0.0
    assert rx[0] == rx[1] == rx[2] == whole_rx[0] > 0


def test_a_collective_in_its_latency_phase_keeps_the_member_list_it_started_with():
    whole, _, whole_rx = _allreduce_among_survivors(None)
    # the four-rank exchange is priced (its latency is 2 us) before rank 3
    # dies at 1 us: node 3's pipes still carry it, survivors get their sum
    out, world, rx = _allreduce_among_survivors(1e-6)
    assert world.active_ranks == [0, 1, 2]
    assert sorted(out) == [0, 1, 2]
    for got in out.values():
        assert got[0] == (whole[0][0][0], 3.0)  # not repriced
        assert got[1][1] == 3.0
    # the second epoch starts after rank 3 died, so only the first counts
    assert rx[3] == whole_rx[3] / 2 > 0
    assert rx[0] == whole_rx[0]


def test_a_rank_deactivated_after_it_contributed_does_not_size_the_exchange():
    # rank 3 contributes 100x the others' bytes, then its node dies before
    # they arrive: its data is dropped, and so is its say in the wire time
    def run(rank3_arrives):
        eng, world = slow_allreduce_world()

        def main(comm):
            if comm.rank == 3:
                if rank3_arrives:
                    yield from comm.allreduce(np.zeros(100_000))
                return None
            yield from comm.sleep(1.0)
            total = yield from comm.allreduce(np.ones(1000))
            return eng.now, total[0]

        procs = world.spawn(main)

        def kill():
            yield eng.timeout(0.5)
            procs[3].interrupt("node died")
            world.deactivate_rank(3)

        eng.process(kill())
        eng.run()
        return [p.value for p in procs[:3]]

    survivors = run(rank3_arrives=False)
    assert survivors[0][1] == 3.0
    # priced on 8 kB, not 800 kB (~0.8 s more at 1 MB/s)
    assert survivors[0][0] < 1.1
    assert run(rank3_arrives=True) == survivors


# ------------------------------------------------- co-located arrivals
_NODE_VALUES = [1e16, 1.0, -1e16, 3.0, 2.5, -7.0]  # the fold order shows


def _rank_calls(comm):
    """Every collective once; what this rank receives and when it is done."""
    x = np.array([_NODE_VALUES[comm.rank]])
    got = [
        (yield from comm.reduce(x, root=1)),
        (yield from comm.allreduce(x)),
        (yield from comm.bcast(x, root=4)),
        (yield from comm.allgather(x)),
        (yield from comm.alltoall([x * d for d in range(comm.size)])),
        (yield from comm.barrier()),
    ]
    return got, comm.env.now


def _node_calls(world, ranks):
    """The same calls, one arrival per node carrying all its *ranks*."""
    xs = [np.array([_NODE_VALUES[r]]) for r in ranks]
    calls = [
        ("reduce", xs, dict(root=1)),
        ("allreduce", xs, {}),
        ("bcast", xs, dict(root=4)),
        ("allgather", xs, {}),
        ("alltoall", [[x * d for d in range(world.size)] for x in xs], {}),
        ("barrier", [None] * len(ranks), {}),
    ]
    got = []
    for kind, payloads, kw in calls:
        got.append((yield from world.collective(ranks, kind, payloads, **kw)))
    return {r: ([out[i] for out in got], world.env.now) for i, r in enumerate(ranks)}


def test_a_node_arrival_receives_and_times_what_its_ranks_would_alone():
    # six ranks round-robin on two nodes: node 0 hosts ranks 0, 2, 4, so a
    # node's ranks are not contiguous and the fold must still run 0..5
    rank_nodes = [r % 2 for r in range(6)]
    alone = run_ranks(6, _rank_calls, rank_nodes=rank_nodes)
    eng, world = make_world(6, rank_nodes=rank_nodes)
    nodes = [eng.process(_node_calls(world, (n, n + 2, n + 4))) for n in (0, 1)]
    eng.run()
    together = {**nodes[0].value, **nodes[1].value}
    assert alone[1][0][0] == -1.5  # ((((1e16 + 1) - 1e16) + 3) + 2.5) - 7
    for r in range(6):
        (want, t_want), (got, t_got) = alone[r], together[r]
        assert t_got == t_want
        for w, g in zip(want, got):
            assert type(g) is type(w)
            if isinstance(w, list):
                assert len(g) == len(w) and all(map(np.array_equal, g, w))
            else:
                assert g is w is None or np.array_equal(g, w)
    # one value per node: its ranks share the bcast view and the allgather
    # list, and every array that arrives is read-only
    reduced, allreduced, bcast, gathered, exchanged, _ = together[0][0]
    assert together[2][0][2] is bcast and together[2][0][3] is gathered
    assert not bcast.flags.writeable and not gathered[5].flags.writeable
    assert together[1][0][0] is not None and together[3][0][0] is None


# ------------------------------------------------------------- machine
def test_world_on_machine_compute_uses_node():
    eng = Engine()
    m = Machine(eng, 4, spec=TESTING_TINY)
    world = World(eng, m.network, [0, 1, 2, 3], node_lookup=m.node)
    t = {}

    def main(comm):
        yield from charge(comm.node, 1e9, 1)  # 1 Gflop on a 1 Gflop/s core = 1 s
        t[comm.rank] = comm.env.now

    world.spawn(main)
    eng.run()
    assert all(v == pytest.approx(1.0) for v in t.values())
    assert m.node(0).busy_seconds == pytest.approx(1.0)


# ------------------------------------------------------ bad arguments
@pytest.mark.parametrize("kind", ["bcast", "reduce"])
def test_rooted_collective_rejects_root_outside_world(kind):
    # bcast used to die with a bare KeyError inside World._apply, and
    # reduce "succeeded" with None everywhere: the result was lost.
    eng, world = make_world(3)

    def main(comm):
        yield from getattr(comm, kind)(comm.rank, root=7)

    procs = world.spawn(main)
    eng.run()
    for p in procs:
        assert not p.ok and isinstance(p.value, SimulationError)
        assert "rank 7" in str(p.value) and "size 3" in str(p.value)


# --------------------------------------------------------- wire_scale
_SCALE, _N = 16, 1000  # a power of two: scaled byte counts are exact


def _collective_call(comm, kind, n, **kw):
    """One *kind* collective in which every rank contributes 8*n bytes."""
    payload = np.zeros(n)
    if kind == "alltoall":
        payload = [np.zeros(n // comm.size)] * comm.size
    return getattr(comm, kind)(payload, **kw)


@pytest.mark.parametrize("shared_nodes", [False, True])
@pytest.mark.parametrize(
    "kind", ["bcast", "reduce", "allreduce", "allgather", "alltoall"]
)
def test_wire_scale_times_like_a_scale_times_larger_payload(kind, shared_nodes):
    # shared_nodes: two ranks per node, so each NIC carries one entry of weight 2
    rank_nodes = [0, 0, 1, 1] if shared_nodes else None

    def duration(n, **kw):
        def main(comm):
            yield from _collective_call(comm, kind, n, **kw)
            return comm.env.now

        return run_ranks(4, main, rank_nodes=rank_nodes, link_bandwidth=1e6)

    scaled = duration(_N, wire_scale=_SCALE)
    assert scaled == duration(_N * _SCALE)
    assert scaled[0] > 4 * duration(_N)[0] > 0


def test_call_wire_scale_replaces_the_world_scale():
    def duration(world_scale, **kw):
        eng = Engine()
        net = Network(eng, TorusTopology(4), NetworkConfig(link_bandwidth=1e6))
        world = World(eng, net, [0, 1, 2, 3], wire_scale=world_scale)

        def main(comm):
            yield from comm.allreduce(np.zeros(_N), **kw)

        world.spawn(main)
        eng.run()
        return eng.now

    assert duration(1.0) < duration(5.0)
    assert duration(5.0, wire_scale=2.0) == duration(2.0)


# ------------------------------------------------- the fold and aliasing
@pytest.mark.parametrize("values", [
    [np.array([1, 2], dtype=np.int32), np.array([0.5, 0.25])],
    [2.0, np.array([1.0, 2.0, 3.0]), 3],
    [np.array([5.0]), np.array([1.0, 7.0, 3.0])],  # (1,) + (3,)
    [np.array(1.5), np.array(2.5), np.array(4.0)],  # 0-d arrays
], ids=["int32+float64", "scalar+array", "broadcast", "0-d"])
def test_reduce_value_type_and_dtype_are_those_of_a_pairwise_fold(values):
    expected = functools.reduce(np.add, values)
    before = [np.array(v, copy=True) for v in values]

    def main(comm):
        everywhere = yield from comm.allreduce(values[comm.rank])
        at_root = yield from comm.reduce(values[comm.rank], root=1)
        return everywhere, at_root

    out = run_ranks(len(values), main)
    for got in [pair[0] for pair in out.values()] + [out[1][1]]:
        assert isinstance(got, type(expected))
        assert getattr(got, "dtype", None) == getattr(expected, "dtype", None)
        assert np.shape(got) == np.shape(expected)
        assert np.array_equal(got, expected)
    assert out[0][1] is None
    for v, b in zip(values, before):
        assert np.array_equal(v, b)
        assert not isinstance(v, np.ndarray) or v.flags.writeable


def _every_collective(comm, x):
    """Every data-carrying call once; returns the arrays that came back."""
    got = []
    got.append((yield from comm.bcast(x, root=comm.size - 1)))
    got.append((yield from comm.reduce(x, root=0)))
    got.append((yield from comm.allreduce(x)))
    got.extend((yield from comm.allgather(x)))
    got.extend((yield from comm.alltoall([x] * comm.size)))
    got.extend((yield from comm.bcast((x, x))))  # a tuple's own elements
    return [g for g in got if g is not None]


@pytest.mark.parametrize("nranks", [1, 3])
def test_arrays_arrive_read_only_and_inputs_stay_untouched(nranks):
    inputs = {r: np.arange(4.0) + r for r in range(nranks)}

    def main(comm):
        got = yield from _every_collective(comm, inputs[comm.rank])
        return got

    out = run_ranks(nranks, main)
    for r, got in out.items():
        # rank 0 also holds the reduce result
        assert len(got) == 4 + 2 * nranks + (1 if r == 0 else 0)
        for arr in got:
            assert isinstance(arr, np.ndarray)
            assert not any(arr is x for x in inputs.values())
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = -1.0
    for r, x in inputs.items():
        assert x.flags.writeable
        np.testing.assert_array_equal(x, np.arange(4.0) + r)


def test_writing_into_a_bcast_result_cannot_reach_the_root_buffer():
    def main(comm):
        mine = np.arange(3.0)
        out = yield from comm.bcast(mine, root=0)
        if comm.rank == 1:
            with pytest.raises(ValueError):
                out += 1.0
            out = out.copy()  # the documented way to mutate
            out += 1.0
        yield from comm.barrier()
        return mine

    out = run_ranks(2, main)
    np.testing.assert_array_equal(out[0], np.arange(3.0))


def test_ranks_of_one_collective_share_one_read_only_view():
    inputs = {r: np.arange(4.0) + r for r in range(4)}

    def main(comm):
        x = inputs[comm.rank]
        got = {
            "bcast": (yield from comm.bcast(x, root=2)),
            "allreduce": (yield from comm.allreduce(x)),
            "reduce": (yield from comm.reduce(x, root=1)),
            "allgather": (yield from comm.allgather(x)),
        }
        yield from comm.barrier()  # every rank holds its results
        if comm.rank == 3:
            mine = got["bcast"].copy()  # the documented way to mutate
            mine += 100.0
            got["allgather"].append("only in rank 3's list")
        yield from comm.barrier()
        return got

    out = run_ranks(4, main)
    for kind in ("bcast", "allreduce"):
        shared = out[0][kind]
        assert all(out[r][kind] is shared for r in range(4))
        assert not shared.flags.writeable
    np.testing.assert_array_equal(out[0]["bcast"], np.arange(4.0) + 2)
    np.testing.assert_array_equal(out[0]["allreduce"], 4 * np.arange(4.0) + 6)
    assert not out[1]["reduce"].flags.writeable
    assert all(out[r]["reduce"] is None for r in (0, 2, 3))
    # a list result is each rank's own; its arrays are read-only
    lists = [out[r]["allgather"] for r in range(4)]
    assert len({id(lst) for lst in lists}) == 4
    assert [len(lst) for lst in lists] == [4, 4, 4, 5]
    for lst in lists:
        for r, arr in enumerate(lst[:4]):
            assert not arr.flags.writeable and arr is not inputs[r]
            np.testing.assert_array_equal(arr, np.arange(4.0) + r)
    for r, x in inputs.items():
        assert x.flags.writeable
        np.testing.assert_array_equal(x, np.arange(4.0) + r)


def test_single_rank_allreduce_does_not_return_its_input():
    def main(comm):
        x = np.arange(3.0)
        out = yield from comm.allreduce(x)
        assert out is not x and x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out[0] = 99.0
        return out

    np.testing.assert_array_equal(run_ranks(1, main)[0], np.arange(3.0))


# ------------------------------------------------------------- sizes
def test_nbytes_of_basics():
    assert nbytes_of(np.zeros(10, dtype=np.float64)) == 80
    assert nbytes_of(b"abcd") == 4
    assert nbytes_of("abcd") == 4
    assert nbytes_of(3.14) == 8
    assert nbytes_of(None) == 0
    assert nbytes_of([np.zeros(2), np.zeros(3)]) >= 40
    assert nbytes_of({"a": 1}) > 8


def test_nbytes_of_memoryview_counts_bytes_not_elements():
    assert nbytes_of(memoryview(np.zeros(4))) == 32  # four 8-byte items
    assert nbytes_of(memoryview(np.zeros((3, 2), dtype=np.int16))) == 12
    assert nbytes_of(memoryview(b"abcdef")) == 6  # 'B' format: one byte each


class _Rows(list):
    nbytes = 999.0  # a list first: the sequence branch wins


class _Sized:
    @property
    def nbytes(self):
        return 123


class _SizedByCall:
    def nbytes(self):
        return 77


class _Fields:
    def __init__(self):
        self.a = np.zeros(4)
        self.b = "xyz"


class _Slotted:
    __slots__ = ("a",)

    def __init__(self):
        self.a = np.zeros(100)


def test_nbytes_of_every_branch():
    """One hand-computed size per branch; each row is sized twice, so
    the per-type branch choice is taken once and then reused."""
    table = [
        (None, 0.0),
        (np.zeros(10), 80.0),
        (memoryview(b"abcdef"), 6.0),
        (True, 8.0),
        (np.float32(1.5), 8.0),
        (1 + 2j, 8.0),
        ([np.zeros(2), 1.0], 16 + 16 + 8),
        ((1, 2), 16 + 8 + 8),
        ({1.0, 2.0}, 16 + 8 + 8),
        (frozenset({"ab"}), 16 + 2),
        (_Rows([np.zeros(3)]), 16 + 24),
        (b"abcd", 4.0),
        (bytearray(3), 3.0),
        ("h\u00e9llo", 6.0),  # the accented letter is two UTF-8 bytes
        ({"a": 1}, 16 + 1 + 8),
        (OrderedDict([("ab", np.zeros(2))]), 16 + 2 + 16),
        (_Sized(), 123.0),
        (_SizedByCall(), 77.0),
        (_Fields(), 16 + 32 + 3),
        (_Slotted(), 8.0),  # no nbytes, no __dict__: the flat estimate
    ]
    for _ in range(2):
        for obj, want in table:
            assert nbytes_of(obj) == want, (obj, want)


def test_nbytes_of_sizes_plain_objects_per_instance():
    class Maybe:
        pass

    with_attr, without = Maybe(), Maybe()
    with_attr.nbytes = 500
    without.x = np.zeros(1)
    for _ in range(2):
        assert nbytes_of(with_attr) == 500.0
        assert nbytes_of(without) == 16 + 8
    with_attr.nbytes = 7  # read each call, never remembered
    assert nbytes_of(with_attr) == 7.0
