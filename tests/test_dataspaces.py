"""Tests for the DataSpaces service: SFC, put/get, queries, coherency."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataspaces import (
    DataSpaces,
    DSQueryStats,
    Region,
    hilbert_d2xy,
    hilbert_xy2d,
    morton_decode,
    morton_encode,
)
from repro.machine import Machine, TESTING_TINY
from repro.sim import Engine


# ------------------------------------------------------------------ SFC
@settings(max_examples=100, deadline=None)
@given(order=st.integers(min_value=1, max_value=6), data=st.data())
def test_hilbert_bijection(order, data):
    n = 1 << order
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    y = data.draw(st.integers(min_value=0, max_value=n - 1))
    d = hilbert_xy2d(order, x, y)
    assert 0 <= d < n * n
    assert hilbert_d2xy(order, d) == (x, y)


def test_hilbert_is_permutation():
    order = 3
    n = 1 << order
    ds = {hilbert_xy2d(order, x, y) for x in range(n) for y in range(n)}
    assert ds == set(range(n * n))


def test_hilbert_neighbours_adjacent():
    # successive curve points are grid neighbours (locality property)
    order = 4
    prev = hilbert_d2xy(order, 0)
    for d in range(1, (1 << order) ** 2):
        cur = hilbert_d2xy(order, d)
        assert abs(cur[0] - prev[0]) + abs(cur[1] - prev[1]) == 1
        prev = cur


def test_hilbert_bounds():
    with pytest.raises(ValueError):
        hilbert_xy2d(2, 4, 0)
    with pytest.raises(ValueError):
        hilbert_d2xy(2, 16)


@settings(max_examples=100, deadline=None)
@given(
    ndims=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_morton_bijection(ndims, data):
    coords = tuple(
        data.draw(st.integers(min_value=0, max_value=255)) for _ in range(ndims)
    )
    code = morton_encode(coords, nbits=8)
    assert morton_decode(code, ndims, nbits=8) == coords


# ----------------------------------------------------------------- Region
def test_region_basics():
    r = Region((0, 0), (4, 6))
    assert r.shape == (4, 6)
    assert r.cells == 24
    assert r.intersect(Region((2, 3), (10, 10))) == Region((2, 3), (4, 6))
    assert r.intersect(Region((4, 0), (5, 5))) is None
    with pytest.raises(ValueError):
        Region((0,), (0,))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ndim=st.integers(min_value=1, max_value=4))
def test_an_intersection_is_the_region_validation_would_build(data, ndim):
    """``intersect`` builds its result without re-validating bounds it
    already checked: equal to, and hashing like, ``Region(lb, ub)``."""
    def box():
        lb = [data.draw(st.integers(-8, 8)) for _ in range(ndim)]
        return Region(lb, [lo + data.draw(st.integers(1, 8)) for lo in lb])

    a, b = box(), box()
    cut = a.intersect(b)
    if cut is None:
        return
    validated = Region(list(cut.lb), list(cut.ub))
    assert cut == validated and hash(cut) == hash(validated)
    assert {cut: 1}[validated] == 1
    assert type(cut.lb) is tuple and all(type(v) is int for v in cut.lb + cut.ub)
    assert cut.shape == validated.shape and cut.cells == validated.cells


def test_region_constructor_still_validates():
    assert Region([np.int64(1)], [np.int64(3)]).lb == (1,)
    assert type(Region([np.int64(1)], [np.int64(3)]).lb[0]) is int
    for lb, ub in [((0, 0), (4,)), ((2,), (2,)), ((0, 5), (4, 3))]:
        with pytest.raises(ValueError):
            Region(lb, ub)
    with pytest.raises(AttributeError):  # frozen, trusted or not
        Region((0,), (1,)).intersect(Region((0,), (2,))).lb = (5,)


def test_region_slice_within():
    outer = Region((2, 2), (10, 10))
    inner = Region((3, 4), (5, 6))
    sel = inner.slice_within(outer)
    assert sel == (slice(1, 3), slice(2, 4))


# ----------------------------------------------------------- DataSpaces
def build_ds(nservers=4, dims=(64, 64)):
    eng = Engine()
    machine = Machine(eng, 8, nservers, spec=TESTING_TINY, fs_interference=False)
    nodes = list(machine.staging_node_ids)
    ds = DataSpaces(eng, machine, nodes)
    ds.declare("field", dims)
    return eng, machine, ds


def run(eng, gen):
    p = eng.process(gen)
    eng.run()
    if not p.ok:
        raise p.value
    return p.value


def test_put_get_roundtrip():
    eng, _, ds = build_ds()
    data = np.arange(16 * 16, dtype=float).reshape(16, 16)

    def main():
        yield from ds.put(0, "field", Region((8, 8), (24, 24)), data)
        out = yield from ds.get(1, "field", Region((8, 8), (24, 24)))
        return out

    out = run(eng, main())
    np.testing.assert_array_equal(out, data)


def test_get_subregion_and_redistribution():
    # write in 4 quadrant chunks from different 'producers', read one
    # region crossing all of them with a different decomposition.
    eng, _, ds = build_ds()
    full = np.arange(32 * 32, dtype=float).reshape(32, 32)

    def main():
        for qi in range(2):
            for qj in range(2):
                r = Region((qi * 16, qj * 16), ((qi + 1) * 16, (qj + 1) * 16))
                yield from ds.put(qi * 2 + qj, "field", r, full[
                    r.lb[0] : r.ub[0], r.lb[1] : r.ub[1]
                ])
        out = yield from ds.get(5, "field", Region((8, 8), (24, 24)))
        return out

    out = run(eng, main())
    np.testing.assert_array_equal(out, full[8:24, 8:24])


def test_get_unwritten_raises():
    eng, _, ds = build_ds()

    def main():
        yield from ds.put(0, "field", Region((0, 0), (4, 4)), np.ones((4, 4)))
        out = yield from ds.get(0, "field", Region((0, 0), (8, 8)))
        return out

    with pytest.raises(KeyError, match="unwritten"):
        run(eng, main())


def test_versions_last_writer_wins():
    eng, _, ds = build_ds()

    def main():
        r = Region((0, 0), (4, 4))
        yield from ds.put(0, "field", r, np.zeros((4, 4)))
        yield from ds.put(0, "field", r, np.full((4, 4), 7.0))
        out = yield from ds.get(1, "field", r)
        return out

    out = run(eng, main())
    np.testing.assert_array_equal(out, np.full((4, 4), 7.0))


def test_first_query_pays_setup():
    eng, _, ds = build_ds()
    stats1, stats2 = DSQueryStats(), DSQueryStats()

    def main():
        r = Region((0, 0), (16, 16))
        yield from ds.put(0, "field", r, np.ones((16, 16)))
        yield from ds.get(3, "field", r, stats=stats1)
        yield from ds.get(3, "field", r, stats=stats2)

    run(eng, main())
    assert stats1.setup_seconds > 0
    assert stats2.setup_seconds == 0.0
    assert stats1.hashing_seconds > 0
    assert stats2.query_seconds > 0


def test_aggregation_query():
    eng, _, ds = build_ds()
    data = np.arange(64, dtype=float).reshape(8, 8)

    def main():
        r = Region((0, 0), (8, 8))
        yield from ds.put(0, "field", r, data)
        res = yield from ds.query_reduce(1, "field", Region((2, 2), (6, 6)))
        return res

    res = run(eng, main())
    sub = data[2:6, 2:6]
    assert res["min"] == sub.min()
    assert res["max"] == sub.max()
    assert res["avg"] == pytest.approx(sub.mean())
    assert res["count"] == sub.size


def test_continuous_query_notification():
    eng, _, ds = build_ds()
    notified = []

    def main():
        ds.register_continuous(
            "field",
            Region((0, 0), (8, 8)),
            client_node=7,
            callback=lambda region, version: notified.append((region, version)),
        )
        yield from ds.put(0, "field", Region((4, 4), (12, 12)), np.ones((8, 8)))
        yield from ds.put(0, "field", Region((20, 20), (28, 28)), np.ones((8, 8)))

    run(eng, main())
    # only the intersecting put triggers a notification
    assert len(notified) == 1
    assert notified[0][0] == Region((4, 4), (12, 12))


def test_storage_spread_across_servers():
    eng, _, ds = build_ds(nservers=4)

    def main():
        full = np.ones((64, 64))
        yield from ds.put(0, "field", Region((0, 0), (64, 64)), full)

    run(eng, main())
    loads = ds.server_load()
    assert sum(loads) == pytest.approx(64 * 64 * 8)
    assert all(l > 0 for l in loads)
    assert max(loads) < sum(loads) * 0.6  # no single hot server


def test_rebalance_moves_metadata_under_skew():
    eng, _, ds = build_ds(nservers=4)

    def main():
        # skewed load: all data in one corner
        yield from ds.put(0, "field", Region((0, 0), (16, 16)),
                          np.ones((16, 16)))

    run(eng, main())
    moved = ds.rebalance("field")
    assert moved > 0
    # after rebalance every server owns some blocks
    idx = ds.index("field")
    owners = set(idx.owner.values())
    assert owners == set(range(4))


def test_declare_twice_rejected():
    _, _, ds = build_ds()
    with pytest.raises(ValueError):
        ds.declare("field", (4, 4))
    with pytest.raises(KeyError):
        ds.index("nope")


def test_put_shape_mismatch():
    eng, _, ds = build_ds()

    def main():
        yield from ds.put(0, "field", Region((0, 0), (4, 4)), np.ones((3, 3)))

    with pytest.raises(ValueError):
        run(eng, main())


def test_3d_domain_uses_morton():
    eng = Engine()
    machine = Machine(eng, 8, 2, spec=TESTING_TINY, fs_interference=False)
    ds = DataSpaces(eng, machine, list(machine.staging_node_ids))
    ds.declare("vol", (16, 16, 16))
    vol = np.random.default_rng(1).random((16, 16, 16))

    def main():
        yield from ds.put(0, "vol", Region((0, 0, 0), (16, 16, 16)), vol)
        out = yield from ds.get(1, "vol", Region((4, 4, 4), (12, 12, 12)))
        return out

    out = run(eng, main())
    np.testing.assert_array_equal(out, vol[4:12, 4:12, 4:12])


def test_register_continuous_returns_durable_ids():
    _, _, ds = build_ds()
    r = Region((0, 0), (8, 8))
    a = ds.register_continuous("field", r, client_node=7, callback=lambda *_: None)
    b = ds.register_continuous("field", r, client_node=7, callback=lambda *_: None)
    assert isinstance(a, int) and isinstance(b, int)
    assert a != b
    # ids stay durable: dropping one leaves the other addressable
    ds.unregister_continuous(a)
    ds.unregister_continuous(b)


def test_unregister_continuous_stops_callbacks():
    eng, _, ds = build_ds()
    notified = []

    def main():
        sid = ds.register_continuous(
            "field",
            Region((0, 0), (8, 8)),
            client_node=7,
            callback=lambda region, version: notified.append((region, version)),
        )
        yield from ds.put(0, "field", Region((0, 0), (8, 8)), np.ones((8, 8)))
        ds.unregister_continuous(sid)
        yield from ds.put(0, "field", Region((0, 0), (8, 8)), np.ones((8, 8)))

    run(eng, main())
    # the departed reader's callback never fires after unregister, and
    # the registry does not leak the dead entry
    assert len(notified) == 1
    assert ds._continuous == {}


def test_unregister_continuous_unknown_id():
    _, _, ds = build_ds()
    with pytest.raises(KeyError):
        ds.unregister_continuous(42)
    sid = ds.register_continuous(
        "field", Region((0, 0), (4, 4)), client_node=0, callback=lambda *_: None
    )
    ds.unregister_continuous(sid)
    with pytest.raises(KeyError):
        ds.unregister_continuous(sid)  # already gone


def test_server_load_matches_brute_force_recount():
    # per-server totals must equal the bytes the test itself put, split
    # by block owner, after a mix of disjoint, overlapping and repeated
    # puts (a re-put version still counts: its bytes were stored)
    eng, _, ds = build_ds(nservers=4)
    puts = [
        (Region((0, 0), (64, 64)), np.ones((64, 64))),
        (Region((8, 8), (24, 40)), np.full((16, 32), 2.0)),
        (Region((50, 2), (64, 10)), np.zeros((14, 8), dtype=np.float32)),
        (Region((8, 8), (24, 40)), np.full((16, 32), 3.0)),
    ]

    def main():
        for client, (region, data) in enumerate(puts):
            yield from ds.put(client, "field", region, data)

    run(eng, main())
    idx = ds.index("field")
    brute = [0.0] * len(ds.server_nodes)
    for region, data in puts:
        for server, blocks in idx.servers_for(region).items():
            for b in blocks:
                brute[server] += idx.block_region(b).intersect(region).cells * data.itemsize
    assert ds.server_load() == brute
    assert sum(brute) == sum(data.nbytes for _, data in puts) == ds.bytes_stored


def test_every_block_readable_after_rebalance():
    # regression: data used to be filed under the server that owned the
    # block at put time and looked up under the owner at query time, so
    # every block rebalance() moved raised "cells unwritten"
    eng, _, ds = build_ds(nservers=4)
    rng = np.random.default_rng(3)
    full = rng.random((64, 64))
    domain = Region((0, 0), (64, 64))
    corner = Region((0, 0), (16, 16))

    def fill():
        yield from ds.put(0, "field", domain, full)
        for k in range(5):  # skew: one corner takes five more versions
            full[:16, :16] = k
            yield from ds.put(1, "field", corner, full[:16, :16])

    run(eng, fill())
    idx = ds.index("field")
    before = dict(idx.owner)
    put_bytes = full.nbytes + 5 * 16 * 16 * 8
    assert sum(ds.server_load()) == put_bytes
    assert ds.rebalance("field") == sum(idx.owner[b] != before[b] for b in before) > 0

    def read_all():
        out = {}
        for b in idx.blocks:
            r = idx.block_region(b)
            out[b] = yield from ds.get(2, "field", r)
            agg = yield from ds.query_reduce(2, "field", r)
            assert agg["count"] == r.cells
        return out

    for b, got in run(eng, read_all()).items():
        np.testing.assert_array_equal(got, full[idx.block_region(b).slice_within(domain)])
    loads = ds.server_load()
    assert sum(loads) == put_bytes  # bytes follow their block's new owner
    assert loads == [
        sum(n for b, n in idx.load_bytes.items() if idx.owner[b] == s) for s in range(4)
    ]


def test_int64_labels_keep_dtype_and_value():
    # regression: get() assembled into a float64 array, so labels above
    # 2**53 came back as the neighbouring even float
    eng, _, ds = build_ds()
    big = 2**53 + 1
    labels = np.full((8, 8), big, dtype=np.int64)
    labels[0, 0] = -7

    def main():
        r = Region((0, 0), (8, 8))
        yield from ds.put(0, "field", r, labels)
        out = yield from ds.get(1, "field", Region((0, 0), (4, 8)))
        agg = yield from ds.query_reduce(1, "field", r)
        return out, agg

    out, agg = run(eng, main())
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, labels[:4])
    assert agg["max"] == big and agg["min"] == -7
    assert agg["avg"] == (63 * big - 7) / 64


def test_get_examines_as_many_pieces_after_50_reputs_as_after_one():
    # history independence as a count: a reader's work per step must not
    # depend on how long the stream has been running
    eng, _, ds = build_ds()
    strips = [Region((r * 16, 0), ((r + 1) * 16, 64)) for r in range(4)]
    query = Region((8, 8), (40, 56))

    def step(value):
        for rank, strip in enumerate(strips):
            yield from ds.put(rank, "field", strip, np.full(strip.shape, value))

    def read():
        stats = DSQueryStats()
        out = yield from ds.get(5, "field", query, stats=stats)
        return out, stats

    run(eng, step(0.0))
    _, first = run(eng, read())
    for k in range(1, 50):
        run(eng, step(float(k)))
    out, last = run(eng, read())
    np.testing.assert_array_equal(out, np.full(query.shape, 49.0))
    assert last.pieces_examined == first.pieces_examined > 0
    # ... while every version's bytes are still charged
    assert last.bytes_moved == 50 * first.bytes_moved


# ----------------------------------------------------------- event budget
class PopTypes:
    """Schedule-trace sink: engine pops counted by event type."""

    def __init__(self):
        self.types = Counter()

    def record(self, _t, _prio, _sub, _seq, event):
        self.types[type(event).__name__] += 1


def one_get(region):
    """Pops, stats and elapsed seconds of one warm get of *region* on two
    servers with a serve rate and a reply overhead; the domain is
    written and the client's discovery paid beforehand."""
    eng = Engine()
    machine = Machine(eng, 4, 2, spec=TESTING_TINY, fs_interference=False)
    ds = DataSpaces(eng, machine, list(machine.staging_node_ids),
                    serve_bandwidth=1e9, reply_overhead_seconds=1e-5)
    ds.declare("field", (32, 32))

    def warm():
        yield from ds.put(0, "field", Region((0, 0), (32, 32)), np.ones((32, 32)))
        yield from ds.get(1, "field", Region((0, 0), (4, 4)))

    run(eng, warm())
    pops, stats, start = PopTypes(), DSQueryStats(), eng.now
    eng.schedule_trace = pops
    run(eng, ds.get(1, "field", region, stats=stats))
    return pops.types, stats, eng.now - start


def test_a_single_server_get_ships_its_reply_inline():
    """No ``ds-serve`` process and no ``AllOf``: the get process pops its
    Initialize; timeouts for hashing, the serve's core time, the
    transfer's latency, its two owner timers and the reply overhead;
    and events for the core grant and the transfer's completion."""
    types, stats, took = one_get(Region((0, 0), (8, 8)))
    assert types == {"Initialize": 1, "Timeout": 6, "Event": 2}
    # what the process-per-server fan-out gave, to the bit
    assert stats == DSQueryStats(
        hashing_seconds=1.9999999999999998e-05, query_seconds=3.1124000000000104e-05,
        servers_contacted=1, bytes_moved=512.0, pieces_examined=1,
    )
    assert took == 5.11240000000001e-05


def test_a_two_server_get_still_fans_out():
    types, stats, took = one_get(Region((0, 0), (32, 32)))
    assert types["Process"] == 2 and types["AllOf"] == 1  # one ds-serve each
    assert sum(types.values()) == 23
    assert stats == DSQueryStats(
        hashing_seconds=0.00032, query_seconds=5.2388e-05,
        servers_contacted=2, bytes_moved=8192.0, pieces_examined=16,
    )
    assert took == 0.000372388
