"""Tests for the interconnect model."""

import gc
from math import ceil, log2

import numpy as np
import pytest

from tests.helpers import awaited_collective
from repro.check import ScheduleTrace
from repro.machine import Machine, Network, NetworkConfig, TorusTopology, TESTING_TINY
from repro.machine.network import live_networks, network_totals, registry_mark
from repro.mpi import World
from repro.sim import Engine


def make_net(n=8, **cfg):
    eng = Engine()
    topo = TorusTopology(n)
    net = Network(eng, topo, NetworkConfig(**cfg))
    return eng, net


def test_transfer_time_dominated_by_bandwidth():
    eng, net = make_net(link_bandwidth=1e9, latency=1e-6, hop_latency=0.0)

    def proc():
        t = yield from net.transfer(0, 1, 1e9)
        return t

    p = eng.process(proc())
    eng.run()
    assert p.value == pytest.approx(1.0, rel=0.01)


def test_zero_byte_transfer_is_latency_only():
    eng, net = make_net(latency=5e-6, hop_latency=0.0)

    def proc():
        t = yield from net.transfer(0, 3, 0.0)
        return t

    p = eng.process(proc())
    eng.run()
    assert p.value == pytest.approx(5e-6)


def test_self_transfer_costs_latency_only():
    eng, net = make_net()

    def proc():
        t = yield from net.transfer(2, 2, 1e12)
        return t

    p = eng.process(proc())
    eng.run()
    assert p.value < 1e-3  # no bandwidth cost for local move


def test_rdma_adds_setup():
    eng, net = make_net(latency=1e-6, hop_latency=0.0, rdma_setup=1e-3)
    times = {}

    def proc(name, rdma):
        t = yield from net.transfer(0, 1, 0.0, rdma=rdma)
        times[name] = t

    eng.process(proc("plain", False))
    eng.process(proc("rdma", True))
    eng.run()
    assert times["rdma"] - times["plain"] == pytest.approx(1e-3)


def test_concurrent_transfers_from_same_source_share_tx():
    eng, net = make_net(link_bandwidth=1e9, latency=0.0, hop_latency=0.0,
                        bisection_bandwidth_per_link=1e12)
    done = {}

    def proc(name, dst):
        yield from net.transfer(0, dst, 1e9)
        done[name] = eng.now

    eng.process(proc("a", 1))
    eng.process(proc("b", 2))
    eng.run()
    # Both share node 0's 1 GB/s TX pipe: ~2 s each instead of 1 s.
    assert done["a"] == pytest.approx(2.0, rel=0.05)
    assert done["b"] == pytest.approx(2.0, rel=0.05)


def test_disjoint_transfers_do_not_contend():
    eng, net = make_net(n=27, link_bandwidth=1e9, latency=0.0, hop_latency=0.0,
                        bisection_bandwidth_per_link=1e12)
    done = {}

    def proc(name, src, dst):
        yield from net.transfer(src, dst, 1e9)
        done[name] = eng.now

    eng.process(proc("a", 0, 1))
    eng.process(proc("b", 2, 3))
    eng.run()
    assert done["a"] == pytest.approx(1.0, rel=0.05)
    assert done["b"] == pytest.approx(1.0, rel=0.05)


def test_nic_byte_accounting():
    eng, net = make_net(latency=0.0, hop_latency=0.0)

    def proc():
        yield from net.transfer(0, 1, 1000.0)

    eng.process(proc())
    eng.run()
    assert net.nic(0).bytes_tx == pytest.approx(1000.0)
    assert net.nic(1).bytes_rx == pytest.approx(1000.0)
    assert net.total_bytes() == pytest.approx(1000.0)


def test_negative_transfer_rejected():
    eng, net = make_net()
    with pytest.raises(ValueError):
        # generator raises at first advance
        eng.run_until_process(eng.process(net.transfer(0, 1, -5.0)))


# ---------------------------------------------------------- collectives
def test_collective_time_single_proc_zero():
    _, net = make_net()
    assert net.collective_time("allreduce", 1, 1e6) == 0.0


def test_collective_time_monotone_in_procs():
    _, net = make_net()
    for kind in ("barrier", "bcast", "reduce", "allreduce", "allgather", "alltoall"):
        t64 = net.collective_time(kind, 64, 1e6)
        t512 = net.collective_time(kind, 512, 1e6)
        assert t512 >= t64, kind


def test_collective_time_monotone_in_bytes():
    _, net = make_net()
    for kind in ("bcast", "reduce", "allreduce", "allgather", "alltoall"):
        small = net.collective_time(kind, 64, 1e3)
        big = net.collective_time(kind, 64, 1e7)
        assert big > small, kind


def test_alltoall_scales_worse_than_allreduce():
    # The paper's sorting operator is all-to-all bound; its cost grows
    # much faster with p than reduction-type collectives.
    _, net = make_net()
    r = net.collective_time("alltoall", 1024, 1e6) / net.collective_time(
        "allreduce", 1024, 1e6
    )
    assert r > 50


def test_unknown_collective_rejected():
    _, net = make_net()
    for kind in ("gossip", "gather", "scatter", "scan", "alltoallv"):
        for nprocs in (1, 8):
            with pytest.raises(ValueError):
                net.collective_time(kind, nprocs, 1.0)
    with pytest.raises(ValueError):
        net.collective_time("bcast", 0, 1.0)


def test_start_collective_base_matches_model():
    eng, net = make_net(n=8, latency=1e-5, hop_latency=0.0,
                        bisection_bandwidth_per_link=1e12)
    nodes = list(range(4))
    p = eng.process(awaited_collective(net, "allreduce", nodes, 1e7))
    eng.run()
    base = net.collective_time("allreduce", 4, 1e7)
    assert p.value == pytest.approx(base, rel=0.1)


def per_rank_collective(net, kind, ranks_nodes, nbytes, model_nprocs=None):
    """Reference: the collective with one transfer per rank per NIC pipe
    and an ``AllOf`` over all of them — what ``start_collective`` did
    before it grouped a node's ranks into one weighted entry."""
    p = model_nprocs or len(ranks_nodes)
    start = net.env.now
    cfg = net.config
    latency = cfg.latency * ceil(log2(p))
    wire_time = max(net.collective_time(kind, p, nbytes) - latency, 0.0)
    yield net.env.timeout(latency)
    events = []
    for node in ranks_nodes:
        nic = net.nic(node)
        events.append(nic.tx.transfer(wire_time * cfg.link_bandwidth))
        events.append(nic.rx.transfer(wire_time * cfg.link_bandwidth))
    yield net.env.all_of(events)
    return net.env.now - start


def collective_elapsed(body, nodes, *, background=(), windows=(), starts=(0.0,)):
    """Elapsed seconds of one 1e8-byte allreduce per entry of *starts*,
    run through *body*, beside ``(start, src, dst, nbytes)`` background
    transfers and ``degrade_link`` windows."""
    eng, net = make_net(n=8, latency=1e-6, hop_latency=0.0,
                        bisection_bandwidth_per_link=1e12)
    for window in windows:
        net.degrade_link(*window)
    elapsed = []

    def coll(start):
        yield eng.timeout(start)
        t = yield from body(net, "allreduce", nodes, 1e8)
        elapsed.append(t)

    def bulk(start, src, dst, nbytes):
        yield eng.timeout(start)
        yield from net.transfer(src, dst, nbytes)

    for start in starts:
        eng.process(coll(start))
    for row in background:
        eng.process(bulk(*row))
    eng.run()
    return elapsed


def test_start_collective_slowed_by_background_traffic():
    nodes = [0, 1, 2, 3]
    # Long bulk transfer out of node 0 overlapping the collective.
    background = [(0.0, 0, 5, 5e9)]
    (slow,) = collective_elapsed(awaited_collective, nodes, background=background)
    (fast,) = collective_elapsed(awaited_collective, nodes)
    assert slow > fast * 1.2
    (ref_slow,) = collective_elapsed(per_rank_collective, nodes, background=background)
    (ref_fast,) = collective_elapsed(per_rank_collective, nodes)
    assert slow / fast == pytest.approx(ref_slow / ref_fast, rel=1e-12)


@pytest.mark.parametrize(
    "nodes",
    [
        [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2],  # four ranks a node
        [0, 0, 0, 1, 1, 1, 2, 2, 2],  # three: weight off the powers of two
        [0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2],  # a rank missing: delays differ per node
    ],
)
@pytest.mark.parametrize(
    "background, windows, starts",
    [
        ((), (), (0.0,)),
        # fetches entering before, at the collective's wire-phase instant, and during it
        ([(0.0, 0, 5, 5e8), (2e-6, 6, 1, 2e8), (0.03, 2, 7, 1e8)], (), (0.0,)),
        # a degradation window opening, and one closing, mid-collective
        ((), [(1, 0.02, 0.5, 0.5), (2, 0.0, 0.04, 0.25)], (0.0,)),
        ([(0.01, 0, 5, 3e8)], [(0, 0.03, 0.2, 0.3)], (0.0,)),
        # a second collective entering pipes the first still occupies
        ((), (), (0.0, 0.02)),
        ([(0.05, 1, 4, 2e8)], [(2, 0.01, 0.1, 0.6)], (0.0, 0.02, 0.3)),
    ],
)
def test_grouped_collective_prices_as_one_transfer_per_rank(
    nodes, background, windows, starts
):
    kwargs = dict(background=background, windows=windows, starts=starts)
    got = collective_elapsed(awaited_collective, nodes, **kwargs)
    want = collective_elapsed(per_rank_collective, nodes, **kwargs)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("where", [0.25, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("nodes", [[0, 0, 1, 1, 2, 2], [0, 0, 0, 1, 1, 2]])
def test_point_to_point_transfer_into_a_collectives_held_wire_phase(nodes, where):
    """The collective finds every pipe idle, so each holds its entry out
    of the heap; a transfer into one of those pipes, entering at *where*
    of the wire phase (1.0: exactly when the node's entry is due), prices
    both as the one-transfer-per-rank reference does."""
    eng, net = make_net(n=8, latency=1e-6, hop_latency=0.0, bisection_bandwidth_per_link=1e12)
    cfg = net.config
    latency = cfg.latency * ceil(log2(len(nodes)))
    wire = net.collective_time("allreduce", len(nodes), 1e8) - latency
    # the transfer waits its own latency, then enters node 0's TX pipe
    enter = latency + where * nodes.count(0) * wire
    start = enter - cfg.latency
    held = []

    def probe():
        yield eng.timeout(latency + 0.01 * wire)
        held.extend(net.nic(n).tx._held is not None for n in sorted(set(nodes)))

    eng.process(awaited_collective(net, "allreduce", nodes, 1e8))
    eng.process(probe())
    eng.run()
    assert held == [True] * len(set(nodes))
    background = [(start, 0, 5, 3e7), (start, 6, 1, 2e7)]
    got = collective_elapsed(awaited_collective, nodes, background=background)
    want = collective_elapsed(per_rank_collective, nodes, background=background)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_collective_on_idle_pipes_is_a_handful_of_engine_events():
    """64 ranks on 16 four-core nodes: between the last rank's arrival
    and the ranks' resumption the engine pops the latency timeout, the
    collective's one pipe timer and the completion event — not a transfer
    and a completion per rank per pipe (~230 pops before grouping)."""
    eng, net = make_net(n=16, latency=1e-6, hop_latency=0.0)
    eng.schedule_trace = ScheduleTrace()
    rank_nodes = [r // 4 for r in range(64)]
    world = World(eng, net, rank_nodes)
    pops, elapsed = {}, {}

    def main(comm):
        pops["arrived"] = eng.schedule_trace.count  # the last rank's write stays
        start = eng.now
        total = yield from comm.allreduce(np.ones(1 << 16))
        pops.setdefault("resumed", eng.schedule_trace.count)
        elapsed[comm.rank] = eng.now - start
        return total[0]

    procs = world.spawn(main)
    eng.run()
    assert [p.value for p in procs] == [64.0] * 64
    assert pops["resumed"] - pops["arrived"] <= 4
    # the wire phase is the alpha-beta model's, four ranks sharing each NIC
    nbytes = 8 * (1 << 16)
    latency = net.config.latency * ceil(log2(64))
    wire = net.collective_time("allreduce", 64, nbytes) - latency
    (took,) = set(elapsed.values())
    assert took == pytest.approx(latency + 4 * wire, rel=1e-12)
    ref_eng, ref_net = make_net(n=16, latency=1e-6, hop_latency=0.0)
    ref = ref_eng.process(per_rank_collective(ref_net, "allreduce", rank_nodes, nbytes))
    ref_eng.run()
    assert took == pytest.approx(ref.value, rel=1e-12)


def test_machine_partitions():
    eng = Engine()
    m = Machine(eng, n_compute_nodes=8, n_staging_nodes=2, spec=TESTING_TINY)
    assert list(m.compute_node_ids) == list(range(8))
    assert list(m.staging_node_ids) == [8, 9]
    assert m.node(8).role == "staging"
    assert m.node(0).role == "compute"
    assert m.staging_ratio() == pytest.approx(4.0)


def test_machine_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Machine(eng, 0)
    with pytest.raises(ValueError):
        Machine(eng, 100, 10, spec=TESTING_TINY)  # exceeds max_nodes=64
    m = Machine(eng, 4, spec=TESTING_TINY)
    with pytest.raises(IndexError):
        m.node(4)


# -- regional layering -------------------------------------------------------
def make_regional_net(**cfg):
    from repro.machine import RegionalTopology

    eng = Engine()
    topo = RegionalTopology(8, ("east", "west"))
    net = Network(eng, topo, NetworkConfig(**cfg))
    return eng, topo, net


def _timed(eng, net, src, dst, nbytes=0.0):
    def proc():
        t = yield from net.transfer(src, dst, nbytes)
        return t

    p = eng.process(proc())
    eng.run()
    return p.value


def test_intra_region_transfer_pays_nothing_extra():
    eng, topo, net = make_regional_net(latency=1e-6, hop_latency=0.0)
    net.region_extra_window("east", "west", 0.0, 1.0, 0.5)
    a, b = topo.region_nodes("east")[:2]
    assert _timed(eng, net, a, b) == pytest.approx(1e-6)


def test_all_local_regional_topology_matches_plain_torus():
    from repro.machine import RegionalTopology

    eng1 = Engine()
    plain = Network(eng1, TorusTopology(8), NetworkConfig(hop_latency=0.0))
    eng2 = Engine()
    regional = Network(
        eng2, RegionalTopology(8, ("east", "west")), NetworkConfig(hop_latency=0.0)
    )
    assert _timed(eng1, plain, 0, 7, 1e6) == _timed(eng2, regional, 0, 7, 1e6)


def test_region_window_adds_only_inside_the_window():
    eng, topo, net = make_regional_net(latency=0.0, hop_latency=0.0)
    east = topo.region_nodes("east")[0]
    west = topo.region_nodes("west")[0]
    net.region_extra_window("east", "west", 10.0, 20.0, 2.0)
    times = {}

    def probe(name, at):
        yield eng.timeout(at)
        t = yield from net.transfer(east, west, 0.0)
        times[name] = t

    eng.process(probe("before", 0.0))
    eng.process(probe("inside", 12.0))
    eng.process(probe("after", 25.0))
    eng.run()
    assert times["before"] == 0.0
    assert times["inside"] == pytest.approx(2.0)
    assert times["after"] == 0.0


def test_region_window_validation():
    eng, _topo, net = make_regional_net()
    with pytest.raises(ValueError):
        net.region_extra_window("east", "east", 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        net.region_extra_window("east", "west", 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        net.region_extra_window("east", "west", 0.0, 1.0, -1.0)
    with pytest.raises(KeyError):
        net.region_extra_window("east", "mars", 0.0, 1.0, 1.0)
    eng2, plain = make_net()
    with pytest.raises(ValueError):
        plain.region_extra_window("east", "west", 0.0, 1.0, 1.0)


def test_region_byte_accounting_is_pairwise_and_symmetric():
    eng, topo, net = make_regional_net(latency=0.0, hop_latency=0.0)
    east = topo.region_nodes("east")[0]
    west = topo.region_nodes("west")[0]

    def proc():
        yield from net.transfer(east, west, 1000.0)
        yield from net.transfer(west, east, 500.0)
        yield from net.transfer(east, topo.region_nodes("east")[1], 250.0)

    eng.process(proc())
    eng.run()
    assert net.region_bytes[("east", "west")] == pytest.approx(1500.0)
    assert net.region_bytes[("east", "east")] == pytest.approx(250.0)


def test_plain_torus_network_has_no_regional_state():
    _eng, net = make_net()
    assert not net.regional
    assert net.region_bytes == {}


def test_finished_network_stays_listed_until_the_next_gc_pass():
    """The benchmark harnesses bracket a public call with registry_mark()
    / live_networks() and read the clock and byte counters of the
    simulations it built *after* it returned, when no caller references
    them any more (NICs without a degradation hook hold no path back to
    their network)."""

    def run():
        eng, net = make_net(link_bandwidth=1e9)
        eng.process(net.transfer(0, 1, 1e6))
        eng.run()
        return eng.now

    gc.collect()
    gc.disable()  # an allocation-triggered pass must not race the read
    try:
        mark = registry_mark()
        now = run()
        (net,) = live_networks(mark)
        assert net.env.now == now and net.total_bytes() == 1e6
        del net
        gc.collect()
        assert live_networks(mark) == []
    finally:
        gc.enable()


def test_network_totals_count_every_simulation_whatever_gc_did():
    """A benchmark's sidecar counts every simulation its call built: one
    that gc already collected still reports its final clock and bytes."""

    def run(nbytes):
        eng, net = make_net(link_bandwidth=1e9)
        eng.process(net.transfer(0, 1, nbytes))
        eng.run()
        return eng.now

    mark = registry_mark()
    first = run(1e6)
    gc.collect()
    second = run(2e6)
    assert len(live_networks(mark)) < 2  # the first one is gone
    assert network_totals(mark) == [(first, 1e6), (second, 2e6)]
    gc.collect()
    assert live_networks(mark) == []
    assert network_totals(mark) == [(first, 1e6), (second, 2e6)]
