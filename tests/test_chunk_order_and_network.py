"""Tests: custom chunk ordering (§IV.C) and network model details."""

import numpy as np
import pytest

from tests.helpers import PARTICLE_GROUP, awaited_collective, particle_step
from repro.core import PreDatA, PreDatAOperator
from repro.core.staging import StagingConfig
from repro.machine import Machine, Network, NetworkConfig, TESTING_TINY, TorusTopology
from repro.mpi import World
from repro.sim import Engine


# ---------------------------------------------------- chunk ordering
class OrderRecorder(PreDatAOperator):
    """Records the rank order in which chunks stream through Map."""

    name = "recorder"

    def __init__(self):
        self.order: list[int] = []

    def partial_calculate(self, step):
        # attach the chunk's key range so orderings can use it
        return float(np.atleast_2d(step.values["electrons"])[:, 0].min())

    def map(self, ctx, step):
        self.order.append(step.rank)
        return []

    def map_flops(self, step):
        return 0.0


def run_with_order(chunk_order):
    eng = Engine()
    machine = Machine(eng, 8, 1, spec=TESTING_TINY, fs_interference=False)
    world = World(eng, machine.network, list(range(8)),
                  node_lookup=machine.node)
    op = OrderRecorder()
    predata = PreDatA(eng, machine, PARTICLE_GROUP, [op],
                      ncompute_procs=8, nsteps=1,
                      procs_per_staging_node=1,
                      chunk_order=chunk_order)
    predata.start()

    def app(comm):
        step = particle_step(comm.rank, 8, 20)
        # skew arrival so arrival order != rank order
        yield from comm.sleep((7 - comm.rank) * 0.01)
        yield from predata.transport.write_step(comm, step)

    world.spawn(app)
    eng.run()
    return op.order


def test_default_order_is_by_rank():
    order = run_with_order(None)
    assert order == sorted(order)


def test_custom_order_descending_rank():
    order = run_with_order(
        lambda reqs: sorted(reqs, key=lambda r: -r.compute_rank)
    )
    assert order == sorted(order, reverse=True)


def test_custom_order_by_attached_partial():
    # order chunks by their minimum key — the §IV.C use case of easing
    # analysis implementations via stream ordering
    order = run_with_order(
        lambda reqs: sorted(reqs, key=lambda r: r.partials["recorder"])
    )
    assert len(order) == 8  # all chunks processed exactly once
    assert sorted(order) == list(range(8))


def test_chunk_order_must_be_callable():
    with pytest.raises(ValueError):
        StagingConfig(chunk_order=42)


# ------------------------------------------------------ network detail
def test_start_collective_model_nprocs_prices_larger_job():
    eng = Engine()
    topo = TorusTopology(8)
    net = Network(eng, topo, NetworkConfig())

    def run(model):
        p = eng.process(
            awaited_collective(net, "allreduce", [0, 1, 2, 3], 1e6, model)
        )
        eng.run()
        return p.value

    t_small = run(None)
    t_big = run(4096)
    assert t_big > t_small


def test_transfer_event_wrapper():
    eng = Engine()
    topo = TorusTopology(4)
    net = Network(eng, topo, NetworkConfig(link_bandwidth=1e6, latency=0.0,
                                           hop_latency=0.0))
    ev = net.transfer_event(0, 1, 1e6)

    def waiter(env):
        yield ev
        return env.now

    p = eng.process(waiter(eng))
    eng.run()
    assert p.value == pytest.approx(1.0, rel=0.05)


def test_backbone_carries_cross_machine_traffic():
    eng = Engine()
    topo = TorusTopology(27)
    net = Network(eng, topo, NetworkConfig(latency=0.0, hop_latency=0.0))

    def mover():
        yield from net.transfer(0, 26, 1e6)

    eng.process(mover())
    eng.run()
    assert net.backbone.bytes_moved == pytest.approx(1e6)


def test_single_rank_collective_free():
    # a one-rank world standing for itself (model_size 1) pays nothing
    eng = Engine()
    topo = TorusTopology(4)
    world = World(eng, Network(eng, topo, NetworkConfig()), [2])

    def main(comm):
        total = yield from comm.allreduce(np.zeros(125_000))  # 1 MB
        return eng.now, total.size

    (p,) = world.spawn(main)
    eng.run()
    assert p.value == (0.0, 125_000)


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(link_bandwidth=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(latency=-1.0)
    with pytest.raises(ValueError):
        NetworkConfig(rdma_setup=-1.0)
