"""Differential and event-budget tests for point-to-point transfers.

``OracleNetwork.transfer`` is ``Network.transfer``'s body before
point-to-point traffic went on the owner-settled wire, kept as an
oracle: three ``SharedBandwidth.transfer`` events (the source's TX
pipe, the destination's RX pipe and the backbone at the hop weight)
and an ``AllOf`` over them.  ``Network.transfer`` enters the same three
pipes as ``occupy()`` entries of count 1 — the tag, weight and size a
``transfer()`` would queue — and owns the wakeup of every pipe it found
idle, as a collective does.  The same script run through both must
agree on every completion time (1e-9 relative), on which rows
complete at each instant, and on every NIC's ``bytes_tx``/``bytes_rx`` and every
pipe's ``bytes_moved``.

Script rows, each started by its own process at ``start``:

- ``("p2p", start, src, dst, nbytes, rdma)``: ``net.transfer``;
- ``("pipe", start, node, side, nbytes, weight)``: a foreign
  ``transfer()`` straight into ``nic(node).tx`` / ``.rx``, or the
  backbone (``side == "bb"``);
- ``("coll", start, nodes, nbytes)``: an allreduce over *nodes*;
- ``("degrade", start, node, begin, end, factor)``: ``degrade_link``
  called at *start* (0.0: before anything enters a pipe).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import awaited_collective
from repro.check import ScheduleTrace
from repro.machine import Network, NetworkConfig, RegionalTopology, TorusTopology
from repro.sim import Engine

#: slow enough that backbone and NICs contend, with hop weights 2/3 .. 2
#: on the 2x2x2 torus.  A lone transfer is due in the backbone (8
#: bisection links) after nbytes / (8 * per link) seconds whatever its
#: weight: with 125 B/s a link that is when the NICs are due, one owner
#: timer in all; with 250 B/s the backbone is due first, two timers.
CONFIG = dict(link_bandwidth=1e3, latency=1e-3, hop_latency=2e-4, rdma_setup=5e-4)
BISECTION = (125.0, 250.0)


class OracleNetwork(Network):
    """``Network`` with the three-``transfer`` + ``AllOf`` p2p body."""

    def transfer(self, src, dst, nbytes, *, rdma=False):
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        start = self.env.now
        cfg = self.config
        latency = cfg.latency + cfg.hop_latency * self.topology.hops(src, dst)
        if rdma:
            latency += cfg.rdma_setup
        if self.regional:
            latency += self._regional_extra(src, dst, self.env.now)
        yield self.env.timeout(latency)
        if nbytes > 0 and src != dst:
            snic, dnic = self.nic(src), self.nic(dst)
            hops = max(self.topology.hops(src, dst), 1)
            backbone_weight = hops / self._avg_hops
            yield self.env.all_of(
                [
                    snic.tx.transfer(nbytes),
                    dnic.rx.transfer(nbytes),
                    self.backbone.transfer(nbytes, weight=backbone_weight),
                ]
            )
            snic.bytes_tx += nbytes
            dnic.bytes_rx += nbytes
            if self.regional:
                self._account_region_bytes(src, dst, nbytes)
        return self.env.now - start


def build(cls, regional=False, region_windows=(), bisection=250.0):
    eng = Engine()
    topo = RegionalTopology(8, ("east", "west")) if regional else TorusTopology(8)
    net = cls(eng, topo, NetworkConfig(**CONFIG, bisection_bandwidth_per_link=bisection))
    for window in region_windows:
        net.region_extra_window(*window)
    return eng, net


def simulate(cls, script, *, regional=False, region_windows=(), bisection=250.0):
    """Run *script* on a fresh network of class *cls*.

    Returns every row's completion time (``None`` for ``degrade``), the
    row indices in the order they completed, and the byte counters of
    every NIC and of the backbone.
    """
    eng, net = build(cls, regional, region_windows, bisection)
    finished_at: list = [None] * len(script)
    order: list[int] = []

    def body(i, kind, start, *args):
        yield eng.timeout(start)
        if kind == "p2p":
            src, dst, nbytes, rdma = args
            yield from net.transfer(src, dst, nbytes, rdma=rdma)
        elif kind == "pipe":
            node, side, nbytes, weight = args
            pipe = net.backbone if side == "bb" else getattr(net.nic(node), side)
            yield pipe.transfer(nbytes, weight=weight)
        elif kind == "coll":
            nodes, nbytes = args
            yield from awaited_collective(net, "allreduce", nodes, nbytes)
        else:
            net.degrade_link(*args)
            return
        finished_at[i] = eng.now
        order.append(i)

    procs = [eng.process(body(i, *row)) for i, row in enumerate(script)]
    eng.run()
    for proc in procs:  # an exception in either model is a test error
        eng.run_until_process(proc)
    counters = {
        node: (nic.bytes_tx, nic.bytes_rx, nic.tx.bytes_moved, nic.rx.bytes_moved)
        for node, nic in sorted(net._nics.items())
    }
    counters["backbone"] = net.backbone.bytes_moved
    for pipe in [net.backbone] + [p for nic in net._nics.values() for p in (nic.tx, nic.rx)]:
        assert pipe.active_transfers == 0
    return finished_at, order, counters, net


def assert_models_agree(script, **kw):
    new_t, new_order, new_bytes, new = simulate(Network, script, **kw)
    old_t, old_order, old_bytes, old = simulate(OracleNetwork, script, **kw)
    assert new_t == pytest.approx(old_t, rel=1e-9, abs=0.0)
    # the same rows complete at each instant; within one instant the
    # order rows resume in may differ (one pop after the last pipe)
    assert instants(new_t, new_order) == instants(old_t, old_order)
    assert new_bytes == old_bytes
    assert new.region_bytes == old.region_bytes
    return new_t


def instants(times, order):
    """The rows that completed at each instant, instant by instant."""
    out = []
    for i in order:
        if out and times[out[-1][0]] == times[i]:
            out[-1].append(i)
        else:
            out.append([i])
    return [sorted(group) for group in out]


def entry_due(net, start, src, dst, nbytes, side):
    """When a lone p2p transfer posted at *start* is due in pipe *side*,
    in the pipe's own float arithmetic (``occupy`` on an idle pipe)."""
    cfg = net.config
    hops = net.topology.hops(src, dst)
    enter = start + (cfg.latency + cfg.hop_latency * hops)
    if side == "bb":
        weight = max(hops, 1) / net._avg_hops
        eta = (nbytes / weight) * weight / net.backbone.rate
    else:
        eta = float(nbytes) / cfg.link_bandwidth
    return enter + max(eta, enter * 1e-12, 1e-12)


# ------------------------------------------------------------ around one entry
#: one transfer from node 0 to node 7 (3 hops: backbone weight 2) and
#: one from 0 to 1 (1 hop, RDMA: weight 2/3)
_P2P = [("p2p", 0.5, 0, 7, 300.0, False), ("p2p", 0.5, 0, 1, 300.0, True)]


@pytest.mark.parametrize("bisection", BISECTION)
@pytest.mark.parametrize("p2p", _P2P)
@pytest.mark.parametrize("side", ["tx", "rx", "bb"])
@pytest.mark.parametrize("offset", [-0.1, -1e-9, 0.0, 1e-9, 0.1])
@pytest.mark.parametrize("size", [50.0, 1e-6])
def test_foreign_arrival_around_each_pipes_due_time(p2p, side, offset, size, bisection):
    """A foreign transfer enters one of the three pipes before, exactly
    at, or after the instant that pipe's entry is due (both same-instant
    orders: the foreign row first and last in the script)."""
    _kind, start, src, dst, nbytes, _rdma = p2p
    _eng, net = build(Network, bisection=bisection)
    due = entry_due(net, start, src, dst, nbytes, side)
    node = src if side == "tx" else dst
    foreign = ("pipe", due + offset, node, side, size, 1.0)
    assert_models_agree([p2p, foreign], bisection=bisection)
    assert_models_agree([foreign, p2p], bisection=bisection)


@pytest.mark.parametrize("at", [0.0, 0.4, 0.6, 0.8])
def test_foreign_arrival_before_the_entry_and_while_it_is_held(at):
    """The transfer enters its pipes at ~0.5016 s.  0.0: the foreign
    traffic is gone by then; 0.4: the pipes are busy at entry (armed
    normally); 0.6 and 0.8: the arrivals push held entries into the
    heaps (at 0.8 the backbone's entry is already done)."""
    script = [
        ("p2p", 0.5, 0, 7, 300.0, False),
        ("pipe", at, 0, "tx", 200.0, 1.0),
        ("pipe", at, 7, "rx", 100.0, 0.5),
        ("pipe", at, None, "bb", 150.0, 3.0),
    ]
    assert_models_agree(script)
    assert_models_agree(script[::-1])


@pytest.mark.parametrize(
    "degrade",
    [
        ("degrade", 0.0, 0, 0.2, 5.0, 0.5),  # before: the NIC is born with its hook
        ("degrade", 0.0, 7, 0.6, 0.7, 0.25),  # before, a window opening mid-entry
        ("degrade", 0.6, 0, 0.0, 5.0, 0.5),  # during: the held entry gains a hook
        ("degrade", 0.6, 7, 0.65, 0.9, 0.3),  # during, a window in the future
        ("degrade", 0.6, 0, 0.4, 0.61, 0.1),  # during, a window already closing
    ],
)
def test_degrade_link_before_and_during_an_entry(degrade):
    script = [("p2p", 0.5, 0, 7, 300.0, False), degrade, ("p2p", 0.55, 3, 0, 80.0, True)]
    assert_models_agree(script)
    assert_models_agree(script[::-1])


def test_zero_bytes_and_loopback_never_enter_a_pipe():
    script = [
        ("p2p", 0.0, 0, 7, 0.0, False),
        ("p2p", 0.0, 2, 2, 500.0, True),
        ("p2p", 0.1, 5, 5, 0.0, False),
    ]
    times = assert_models_agree(script)
    _t, _o, counters, net = simulate(Network, script)
    assert counters == {"backbone": 0.0}  # no NIC was even created
    cfg = net.config
    assert times[0] == cfg.latency + cfg.hop_latency * 3
    assert times[1] == cfg.latency + cfg.rdma_setup


@pytest.mark.parametrize("window", [(0.0, 10.0, 0.25), (0.3, 0.6, 2.0), (1.0, 2.0, 0.5)])
def test_regional_extra_latency(window):
    """Cross-region rows pay the open windows' extra before they enter
    the pipes; intra-region rows do not."""
    script = [
        ("p2p", 0.5, 0, 5, 300.0, False),  # east -> west
        ("p2p", 0.5, 6, 1, 120.0, True),  # west -> east
        ("p2p", 0.5, 1, 3, 60.0, False),  # east -> east
        ("p2p", 1.2, 0, 4, 90.0, False),
    ]
    kw = dict(regional=True, region_windows=[("east", "west", *window)])
    assert_models_agree(script, **kw)
    assert_models_agree(script[::-1], **kw)


@pytest.mark.parametrize("p2p_start", [0.0, 0.001, 0.05, 0.3, 0.9])
@pytest.mark.parametrize("nodes", [[0, 0, 1, 1, 2, 2], [0, 1, 2, 3, 4, 5, 6, 7]])
def test_collective_and_p2p_on_the_same_nic(p2p_start, nodes):
    """Node 0's pipes carry a collective's entry and a p2p entry: the
    transfer enters before the wire phase, while the collective's entry
    is held, and after it; the collective prices as before too."""
    script = [
        ("coll", 0.0, nodes, 100.0),
        ("p2p", p2p_start, 0, 7, 250.0, False),
        ("p2p", p2p_start, 5, 0, 40.0, True),
    ]
    assert_models_agree(script)
    assert_models_agree(script[::-1])


# ------------------------------------------------------------- seeded scripts
def seeded_script(rng: random.Random, n: int):
    """Bursts of p2p rows (zero bytes and loopback included) with foreign
    pipe transfers, collectives and ``degrade_link`` calls among them."""
    script, t = [], 0.0
    while len(script) < n:
        if rng.random() < 0.6:
            t += rng.choice([0.0, 0.0, rng.uniform(0.0, 0.5), rng.uniform(0.0, 1e-6)])
        roll = rng.random()
        if roll < 0.6:
            for _ in range(rng.choice([1, 1, 2, 3, 6])):
                src, dst = rng.randrange(8), rng.randrange(8)
                size = rng.choice([0.0, rng.uniform(1e-6, 1.0), rng.uniform(1.0, 500.0), 64.0])
                script.append(("p2p", t, src, dst, size, rng.random() < 0.5))
        elif roll < 0.8:
            side = rng.choice(["tx", "rx", "bb"])
            size = rng.choice([rng.uniform(1e-6, 1.0), rng.uniform(1.0, 500.0)])
            script.append(("pipe", t, rng.randrange(8), side, size, rng.choice([1.0, rng.uniform(0.1, 5.0)])))
        elif roll < 0.9:
            nodes = sorted(rng.choice(range(8)) for _ in range(rng.randrange(2, 9)))
            script.append(("coll", t, nodes, rng.uniform(1.0, 200.0)))
        else:
            begin = t + rng.uniform(-0.5, 0.5)
            script.append(("degrade", t, rng.randrange(8), begin,
                           begin + rng.uniform(0.01, 1.0), rng.uniform(0.05, 1.0)))
    return script


@pytest.mark.parametrize("block", range(4))
def test_seeded_scripts_match_the_three_transfer_oracle(block):
    for seed in range(50 * block, 50 * block + 50):
        rng = random.Random(4500 + seed)
        script = seeded_script(rng, rng.randrange(1, 40))
        assert_models_agree(script, bisection=rng.choice(BISECTION))


@pytest.mark.parametrize("block", range(2))
def test_seeded_regional_scripts_match_the_three_transfer_oracle(block):
    for seed in range(50 * block, 50 * block + 50):
        rng = random.Random(8800 + seed)
        script = seeded_script(rng, rng.randrange(1, 30))
        begin = rng.uniform(0.0, 2.0)
        windows = [("east", "west", begin, begin + rng.uniform(0.1, 2.0), rng.uniform(0.0, 0.5))]
        assert_models_agree(script, regional=True, region_windows=windows)


@given(
    script=st.lists(
        st.tuples(
            st.just("p2p"),
            st.sampled_from([0.0, 0.25, 0.25, 0.5, 1.0, 3.0]),  # repeats: same-instant bursts
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
            st.one_of(
                st.sampled_from([0.0, 1e-7, 64.0, 64.0, 300.0]),
                st.floats(min_value=1e-3, max_value=1e3),
            ),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=150, deadline=None)
def test_random_p2p_scripts_match_the_three_transfer_oracle(script):
    assert_models_agree(script)


# --------------------------------------------------------------- event budget
def pops_of(body_factory, cls=Network, bisection=250.0):
    eng, net = build(cls, bisection=bisection)
    eng.schedule_trace = ScheduleTrace()
    proc = eng.process(body_factory(net))
    eng.run_until_process(proc)
    eng.run()
    return eng.schedule_trace.count, eng._seq


@pytest.mark.parametrize(
    "bisection, budget",
    [
        # the backbone is due with the NICs: one owner timer
        (125.0, 1 + 1 + 1 + 1),
        # the backbone is due first: two owner timers
        (250.0, 1 + 1 + 2 + 1),
    ],
)
@pytest.mark.parametrize("dst", [7, 1])
def test_an_idle_p2p_transfer_pops_a_handful_of_events(dst, bisection, budget):
    """Initialize, the latency timeout, one owner timer per distinct
    pipe delay and the completion event: no per-pipe completion events,
    no per-pipe wakeups, no ``AllOf`` (the oracle pops 1 + 1 + 3 + 3 + 1)."""

    def one(net):
        yield from net.transfer(0, dst, 300.0)

    assert pops_of(one, bisection=bisection) == (budget, budget)
    assert pops_of(one, OracleNetwork, bisection) == (9, 9)


def test_a_zero_byte_or_loopback_transfer_is_its_latency():
    def both(net):
        yield from net.transfer(0, 7, 0.0)
        yield from net.transfer(3, 3, 1e6)

    assert pops_of(both) == (3, 3)  # Initialize and two latency timeouts
