"""Tests for the interconnect model."""

import gc

import pytest

from repro.machine import Machine, Network, NetworkConfig, TorusTopology, TESTING_TINY
from repro.machine.network import live_networks, registry_mark
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
    with pytest.raises(ValueError):
        net.collective_time("gossip", 8, 1.0)
    with pytest.raises(ValueError):
        net.collective_time("bcast", 0, 1.0)


def test_contended_collective_base_matches_model():
    eng, net = make_net(n=8, latency=1e-5, hop_latency=0.0,
                        bisection_bandwidth_per_link=1e12)
    nodes = list(range(4))

    def proc():
        t = yield from net.contended_collective("allreduce", nodes, 1e7)
        return t

    p = eng.process(proc())
    eng.run()
    base = net.collective_time("allreduce", 4, 1e7)
    assert p.value == pytest.approx(base, rel=0.1)


def test_contended_collective_slowed_by_background_traffic():
    def run(with_background):
        eng, net = make_net(n=8, latency=1e-6, hop_latency=0.0,
                            bisection_bandwidth_per_link=1e12)
        nodes = [0, 1, 2, 3]
        result = {}

        def coll():
            t = yield from net.contended_collective("allreduce", nodes, 1e8)
            result["t"] = t

        def background():
            # Long bulk transfer out of node 0 overlapping the collective.
            yield from net.transfer(0, 5, 5e9)

        eng.process(coll())
        if with_background:
            eng.process(background())
        eng.run()
        return result["t"]

    assert run(True) > run(False) * 1.2


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
    from repro.machine import LatencyClass, RegionalTopology

    eng = Engine()
    topo = RegionalTopology(
        8,
        ("east", "west"),
        classes={"wan": LatencyClass("wan", 0.5)},
        pair_classes={("east", "west"): "wan"},
    )
    net = Network(eng, topo, NetworkConfig(**cfg))
    return eng, topo, net


def _timed(eng, net, src, dst, nbytes=0.0):
    def proc():
        t = yield from net.transfer(src, dst, nbytes)
        return t

    p = eng.process(proc())
    eng.run()
    return p.value


def test_cross_region_transfer_pays_the_latency_class():
    eng, topo, net = make_regional_net(latency=1e-6, hop_latency=0.0)
    east = topo.region_nodes("east")[0]
    west = topo.region_nodes("west")[0]
    assert _timed(eng, net, east, west) == pytest.approx(0.5 + 1e-6)


def test_intra_region_transfer_pays_nothing_extra():
    eng, topo, net = make_regional_net(latency=1e-6, hop_latency=0.0)
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
    assert times["before"] == pytest.approx(0.5)
    assert times["inside"] == pytest.approx(0.5 + 2.0)
    assert times["after"] == pytest.approx(0.5)


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
