"""Edge-case tests: interrupts vs resources, engine modes, world args."""

import pytest

from repro.machine import Network, NetworkConfig, TorusTopology
from repro.mpi import World
from repro.sim import Engine, Interrupt, Resource, SimulationError, Store


def test_interrupting_waiter_does_not_kill_inner_holder():
    """Interrupting a process that waits on a child leaves the child
    (and its resource grant) intact: the unit frees at the child's
    natural end, not at the interrupt."""
    eng = Engine()
    res = Resource(eng, capacity=1)
    got_it = []

    def holder(env):
        try:
            yield env.process(res.use(100.0))
        except Interrupt:
            pass

    def contender(env):
        yield env.timeout(1.0)  # queue behind the holder's grant
        req = res.request()
        yield req
        got_it.append(env.now)
        res.release()

    def killer(env, victim):
        yield env.timeout(5.0)
        victim.interrupt()

    h = eng.process(holder(eng))
    eng.process(contender(eng))
    eng.process(killer(eng, h))
    eng.run()
    # the inner use() held through the interrupt; contender waited for
    # the full 100 s hold
    assert got_it == [pytest.approx(100.0)]


def test_interrupt_direct_holder_releases():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def holder(env):
        req = res.request()
        yield req
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        finally:
            res.release()
        order.append(("holder-out", env.now))

    def contender(env):
        yield env.timeout(1.0)
        req = res.request()
        yield req
        order.append(("contender-in", env.now))
        res.release()

    def killer(env, victim):
        yield env.timeout(5.0)
        victim.interrupt()

    h = eng.process(holder(eng))
    eng.process(contender(eng))
    eng.process(killer(eng, h))
    eng.run()
    assert ("contender-in", pytest.approx(5.0)) in [
        (n, t) for n, t in order
    ]


def test_engine_catch_errors_false_raises():
    eng = Engine(catch_errors=False)

    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    eng.process(bad(eng))
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()


def test_multi_unit_request_validation():
    eng = Engine()
    res = Resource(eng, capacity=4)
    with pytest.raises(ValueError):
        res.request(0)
    with pytest.raises(ValueError):
        res.request(5)
    with pytest.raises(SimulationError):
        res.release(1)


def test_multi_unit_fifo_no_starvation():
    """A big request at the queue head is not starved by small ones."""
    eng = Engine()
    res = Resource(eng, capacity=4)
    grants = []

    def job(env, name, units, hold, start):
        yield env.timeout(start)
        req = res.request(units)
        yield req
        grants.append((name, env.now))
        yield env.timeout(hold)
        res.release(units)

    eng.process(job(eng, "small-a", 2, 10.0, 0.0))
    eng.process(job(eng, "big", 4, 1.0, 1.0))  # queued behind small-a
    eng.process(job(eng, "small-b", 2, 1.0, 2.0))  # arrives later
    eng.run()
    order = [n for n, _ in grants]
    # FIFO head-of-line: 'big' runs before 'small-b' even though
    # small-b could have squeezed into the free capacity.
    assert order.index("big") < order.index("small-b")


def test_store_bounded_capacity_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Store(eng, capacity=0)


def test_world_argument_validation():
    eng = Engine()
    topo = TorusTopology(4)
    net = Network(eng, topo, NetworkConfig())
    with pytest.raises(ValueError):
        World(eng, net, [])
    with pytest.raises(ValueError):
        World(eng, net, [0, 1], wire_scale=0.0)
    with pytest.raises(ValueError):
        World(eng, net, [0, 1, 2], model_size=2)  # below actual size


def test_collective_double_call_same_seq_detected():
    eng = Engine()
    topo = TorusTopology(2)
    world = World(eng, Network(eng, topo, NetworkConfig()), [0, 1])

    def rank0():
        yield from world.collective((0,), "barrier", (None,))

    eng.process(rank0())
    eng.run()

    def rank0_again():
        # call seq 0 twice from the same rank
        world.comm(0)._coll_seq = 0
        yield from world.collective((0,), "barrier", (None,))

    p2 = eng.process(rank0_again())
    eng.run()
    assert not p2.ok
    assert isinstance(p2.value, SimulationError)
    assert "twice" in str(p2.value)


def test_one_arrival_needs_its_ranks_at_one_collective_and_a_payload_each():
    eng = Engine()
    world = World(eng, Network(eng, TorusTopology(2), NetworkConfig()), [0, 0, 1])

    def arrive(ranks, payloads):
        yield from world.collective(ranks, "barrier", payloads)

    p1 = eng.process(arrive((0,), (None,)))
    eng.run()
    # rank 0 is at seq 1 now, rank 1 still at seq 0
    p2 = eng.process(arrive((0, 1), (None, None)))
    p3 = eng.process(arrive((1, 2), (None,)))
    eng.run()
    assert p1.is_alive  # waits for ranks 1 and 2
    assert not p2.ok and "different collectives" in str(p2.value)
    assert not p3.ok and isinstance(p3.value, ValueError)
    # neither failed arrival took a sequence number
    assert [world.comm(r)._coll_seq for r in range(3)] == [1, 0, 0]
