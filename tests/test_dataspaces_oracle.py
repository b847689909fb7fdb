"""Differential tests: block-indexed DataSpaces vs the linear scan it replaced.

``LinearScanSpaces`` is the pre-index store kept as a brute-force
oracle: one flat piece list per server, and every query sorts a
server's *whole* history by version and scans it through
``Region.intersect``.  It reuses the production timing model, so the
same seeded script run against both must agree on every returned array,
every charged byte, every server contacted and every completion time.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataspaces import DataSpaces, DSQueryStats, Region
from repro.machine import TESTING_TINY, Machine
from repro.sim import Engine


class LinearScanSpaces(DataSpaces):
    """Oracle: every piece ever put, filed under its server at put time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.history = {s: [] for s in range(len(self.server_nodes))}

    def put(self, client_node, name, region, data, *, stats=None):
        idx = self.index(name)
        data = np.array(data)
        yield from super().put(client_node, name, region, data, stats=stats)
        version = self.version(name)  # the one this put just committed
        for server, blocks in idx.servers_for(region).items():
            for b in blocks:
                cut = idx.block_region(b).intersect(region)
                self.history[server].append((name, version, cut, data[cut.slice_within(region)]))

    def _overlay(self, name, region, by_server):
        out = np.zeros(region.shape)
        filled = np.zeros(region.shape, dtype=bool)
        charged = dict.fromkeys(by_server, 0.0)
        scanned = 0
        for server in by_server:
            pieces = [p for p in self.history[server] if p[0] == name]
            scanned += len(pieces)
            for _, _, stored, data in sorted(pieces, key=lambda p: p[1]):
                cut = stored.intersect(region)
                if cut is None:
                    continue
                vals = data[cut.slice_within(stored)]
                out[cut.slice_within(region)] = vals
                filled[cut.slice_within(region)] = True
                charged[server] += vals.nbytes
        return out, filled, charged, scanned


@dataclass
class Op:
    kind: str  # "put" | "get" | "reduce"
    start: float
    client: int
    region: Region
    value: float = 0.0


def simulate(cls, dims, nservers, ops):
    """Run *ops* as concurrent processes; one log row per op."""
    eng = Engine()
    machine = Machine(eng, 8, nservers, spec=TESTING_TINY, fs_interference=False)
    # wire_scale stretches transfers so in-flight puts really overlap
    ds = cls(eng, machine, list(machine.staging_node_ids),
             wire_scale=100.0, serve_bandwidth=5e8, reply_overhead_seconds=1e-6)
    ds.declare("f", dims)
    log = [None] * len(ops)

    def body(i, op):
        yield eng.timeout(op.start)
        stats = DSQueryStats()
        try:
            if op.kind == "put":
                data = np.full(op.region.shape, op.value) + np.arange(op.region.shape[-1])
                result = yield from ds.put(op.client, "f", op.region, data, stats=stats)
            elif op.kind == "get":
                result = yield from ds.get(op.client, "f", op.region, stats=stats)
            else:
                result = yield from ds.query_reduce(op.client, "f", op.region, stats=stats)
        except KeyError as exc:
            result = str(exc)
        log[i] = (eng.now, ds.version("f"), result, stats.bytes_moved, stats.servers_contacted)

    for i, op in enumerate(ops):
        eng.process(body(i, op), name=f"op-{i}")
    eng.run()
    return log, ds.server_load(), ds.bytes_stored


def assert_same_run(dims, nservers, ops):
    got, got_load, got_stored = simulate(DataSpaces, dims, nservers, ops)
    want, want_load, want_stored = simulate(LinearScanSpaces, dims, nservers, ops)
    for op, g, w in zip(ops, got, want):
        assert g[:2] == w[:2], (op, g, w)  # completion time, committed version
        assert g[3:] == w[3:], (op, g, w)  # bytes_moved, servers_contacted
        if isinstance(w[2], np.ndarray):
            assert g[2].dtype == w[2].dtype
            np.testing.assert_array_equal(g[2], w[2])
        else:
            assert g[2] == w[2], (op, g, w)  # None, reduce dict or KeyError text
    assert got_load == want_load and got_stored == want_stored
    return got


def test_out_of_order_commit_matches_linear_scan():
    # A (whole domain, slow) reads version 1, then B, C and D each read
    # and commit a version while A is still on the wire; A lands last
    # with the *lowest* version, so its cells must stay under theirs.
    whole = Region((0, 0), (32, 32))
    ops = [
        Op("put", 0.0, 0, whole, 1.0),
        # A hashes its 64 blocks for 1.28 ms before it reads its version
        Op("put", 1.4e-3, 1, Region((0, 0), (6, 6)), 2.0),
        Op("put", 1.6e-3, 2, Region((4, 4), (8, 8)), 3.0),  # overlaps B and D partially
        Op("put", 1.56e-3, 3, Region((0, 0), (6, 6)), 4.0),  # B's region again, C's version
        Op("get", 2e-3, 4, whole),
        Op("get", 2e-3, 5, Region((2, 2), (10, 7))),
        Op("reduce", 2e-3, 6, Region((0, 0), (16, 16))),
    ]
    log = assert_same_run((32, 32), 4, ops)
    landed = sorted(range(4), key=lambda i: log[i][0])
    assert landed == [1, 2, 3, 0]
    assert [log[i][1] for i in landed] == [1, 2, 2, 1]  # committed version goes backwards
    out = log[4][2]
    # D over C where both wrote, C over A, A only where nothing newer landed
    # (values are base + column offset inside the writer region)
    assert (out[0, 0], out[5, 5], out[7, 7], out[6, 0]) == (4.0, 4.0 + 5, 3.0 + 3, 1.0)


@st.composite
def scripts(draw):
    dims = draw(st.sampled_from([(32, 32), (20, 13), (8, 6, 5)]))

    def box():
        ends = [draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2)) for d in dims]
        lo_hi = [sorted(pair) for pair in ends]
        return Region(tuple(lo for lo, _ in lo_hi), tuple(hi + 1 for _, hi in lo_hi))

    # a small pool of writer regions: re-puts of one entry are identical
    # regions across versions, different entries overlap partially
    whole = Region((0,) * len(dims), dims)
    pool = [whole] + [box() for _ in range(draw(st.integers(1, 4)))]
    tick = st.integers(0, 20).map(lambda k: k * 1e-4)  # inside transfer times: puts overlap
    ops = []
    for k in range(draw(st.integers(1, 10))):
        ops.append(Op("put", draw(tick), draw(st.integers(0, 3)), draw(st.sampled_from(pool)),
                      float(k)))
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["get", "get", "reduce"]))
        region = draw(st.sampled_from(pool)) if draw(st.booleans()) else box()
        ops.append(Op(kind, draw(tick) * 2, draw(st.integers(4, 7)), region))
    return dims, draw(st.sampled_from([1, 3, 4])), ops


@settings(max_examples=120, deadline=None)
@given(script=scripts())
def test_random_scripts_match_linear_scan(script):
    assert_same_run(*script)
