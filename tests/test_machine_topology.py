"""Unit + property tests for the torus topology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import TorusTopology


def test_coords_roundtrip_small():
    topo = TorusTopology(27, dims=(3, 3, 3))
    for node in range(27):
        assert topo.node_at(topo.coords(node)) == node


def test_hops_self_zero():
    topo = TorusTopology(16)
    for node in range(16):
        assert topo.hops(node, node) == 0


def test_hops_symmetric():
    topo = TorusTopology(24)
    for a in range(24):
        for b in range(24):
            assert topo.hops(a, b) == topo.hops(b, a)


def test_hops_wraparound():
    # Ring of 8 in x: distance 0 -> 7 is 1 hop via wrap.
    topo = TorusTopology(8, dims=(8, 1, 1))
    assert topo.hops(0, 7) == 1
    assert topo.hops(0, 4) == 4


def test_diameter():
    topo = TorusTopology(64, dims=(4, 4, 4))
    assert topo.diameter == 6


def test_neighbors_count_full_torus():
    topo = TorusTopology(64, dims=(4, 4, 4))
    for node in range(64):
        neigh = list(topo.neighbors(node))
        assert len(neigh) == 6
        assert node not in neigh


def test_neighbors_all_one_hop():
    topo = TorusTopology(36, dims=(3, 3, 4))
    for node in range(36):
        for other in topo.neighbors(node):
            assert topo.hops(node, other) == 1


def _bfs_distances(topo, start):
    """Hop distance from *start* to every node reachable over ``neighbors()``."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        reached = []
        for node in frontier:
            for other in topo.neighbors(node):
                if other not in dist:
                    dist[other] = dist[node] + 1
                    reached.append(other)
        frontier = reached
    return dist


def test_graph_connected():
    topo = TorusTopology(50)
    assert sorted(_bfs_distances(topo, 0)) == list(range(50))


def test_graph_distance_matches_hops_on_full_torus():
    topo = TorusTopology(27, dims=(3, 3, 3))
    for a in range(27):
        dist = _bfs_distances(topo, a)
        for b in range(27):
            assert dist[b] == topo.hops(a, b)


def test_bisection_links_positive():
    assert TorusTopology(64, dims=(4, 4, 4)).bisection_links() == 32
    assert TorusTopology(1).bisection_links() >= 1


def test_average_hops_reasonable():
    topo = TorusTopology(64, dims=(4, 4, 4))
    avg = topo.average_hops()
    assert 0 < avg <= topo.diameter


def test_invalid_construction():
    with pytest.raises(ValueError):
        TorusTopology(0)
    with pytest.raises(ValueError):
        TorusTopology(100, dims=(2, 2, 2))


def test_coords_out_of_range():
    topo = TorusTopology(8)
    with pytest.raises(IndexError):
        topo.coords(8)
    with pytest.raises(IndexError):
        topo.node_at((99, 0, 0))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=1, max_value=600))
def test_dims_cover_n(n):
    topo = TorusTopology(n)
    x, y, z = topo.dims
    assert x * y * z >= n


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=200), data=st.data())
def test_triangle_inequality(n, data):
    topo = TorusTopology(n)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    c = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert topo.hops(a, c) <= topo.hops(a, b) + topo.hops(b, c)


# -- hypothesis: structural torus properties --------------------------------
@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=1, max_value=400), data=st.data())
def test_coords_node_at_inverse_roundtrip(n, data):
    topo = TorusTopology(n)
    node = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert topo.node_at(topo.coords(node)) == node


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=2, max_value=400), data=st.data())
def test_hops_symmetry_property(n, data):
    topo = TorusTopology(n)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert topo.hops(a, b) == topo.hops(b, a)
    assert topo.hops(a, a) == 0
    assert topo.hops(a, b) <= topo.diameter


@settings(max_examples=40, deadline=None)
@given(
    dims=st.tuples(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    ),
    data=st.data(),
)
def test_neighbor_degree_on_non_cubic_dims(dims, data):
    """On a full (hole-free) torus, the number of *distinct* neighbours
    per axis is 0 for a dimension of 1 (self-loop), 1 for a dimension
    of 2 (both directions reach the same node), else 2."""
    n = dims[0] * dims[1] * dims[2]
    topo = TorusTopology(n, dims=dims)
    node = data.draw(st.integers(min_value=0, max_value=n - 1))
    expected = sum(0 if d == 1 else (1 if d == 2 else 2) for d in dims)
    neigh = set(topo.neighbors(node))
    assert len(neigh) == expected, (dims, node, sorted(neigh))
    assert all(topo.hops(node, other) == 1 for other in neigh)


# -- regional topology ------------------------------------------------------
def _regional():
    from repro.machine import RegionalTopology

    return RegionalTopology(12, ("east", "west"))


def test_regions_partition_the_nodes():
    topo = _regional()
    seen = []
    for region in topo.regions:
        nodes = topo.region_nodes(region)
        assert nodes, region
        assert all(topo.region_of(nd) == region for nd in nodes)
        seen.extend(nodes)
    assert sorted(seen) == list(range(topo.n))


def test_contiguous_striping_is_balanced():
    from repro.machine import RegionalTopology

    topo = RegionalTopology(10, ("a", "b", "c"))
    sizes = [len(topo.region_nodes(r)) for r in topo.regions]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1


def _extra(topo, src, dst, window):
    """Seconds a zero-byte src->dst transfer takes on a zero-latency
    network with *window* (a region pair) slowed by 0.25 s."""
    from repro.machine import Network, NetworkConfig
    from repro.sim import Engine

    eng = Engine()
    net = Network(eng, topo, NetworkConfig(latency=0.0, hop_latency=0.0))
    net.region_extra_window(*window, 0.0, 1.0, 0.25)
    proc = eng.process(net.transfer(src, dst, 0.0))
    eng.run()
    return proc.value


def test_pair_latency_symmetric_and_intra_zero():
    topo = _regional()
    east = topo.region_nodes("east")[0]
    west = topo.region_nodes("west")[0]
    assert _extra(topo, east, west, ("east", "west")) == 0.25
    assert _extra(topo, west, east, ("east", "west")) == 0.25
    assert _extra(topo, east, topo.region_nodes("east")[-1], ("east", "west")) == 0.0


def test_unmapped_pairs_default_to_local():
    from repro.machine import RegionalTopology

    topo = RegionalTopology(9, ("a", "b", "c"))
    a, b, c = (topo.region_nodes(r)[0] for r in topo.regions)
    assert _extra(topo, a, b, ("b", "a")) == 0.25
    # a window slows its own pair only
    assert _extra(topo, a, c, ("a", "b")) == 0.0
    assert _extra(topo, c, b, ("a", "b")) == 0.0


def test_regional_validation_errors():
    from repro.machine import RegionalTopology

    with pytest.raises(ValueError):
        RegionalTopology(4, ())
    with pytest.raises(ValueError):
        RegionalTopology(4, ("a", "a"))
    with pytest.raises(KeyError):
        _regional().region_nodes("north")
    with pytest.raises(IndexError):
        _regional().region_of(12)


def test_regional_is_still_a_torus():
    topo = _regional()
    assert isinstance(topo, TorusTopology)
    for node in range(topo.n):
        assert topo.node_at(topo.coords(node)) == node
