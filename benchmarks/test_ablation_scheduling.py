"""Ablation — scheduled vs unscheduled asynchronous data movement.

§IV.A/§V.B.2: PreDatA *schedules* RDMA fetches around the
application's collective-communication phases; without scheduling,
bulk fetch traffic overlaps collectives on the shared NICs and the
main loop inflates (the paper bounds the residual interference to
<6 % worst case *with* scheduling).

The scenario pins the effect down deterministically: compute nodes run
a dense sequence of bandwidth-meaningful collectives while the staging
area pulls a large buffered dump from them.  With the scheduler on,
fetches defer to the compute windows; off, they collide with the
collectives.
"""

import numpy as np

from repro.core import MovementScheduler, StagingClient
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World
from repro.sim import Engine
from repro.adios import GroupDef, OutputStep, VarDef, VarKind

GROUP = GroupDef(
    "dump", (VarDef("data", "float64", VarKind.LOCAL_ARRAY, ndim=1),)
)


def run_scenario(scheduled: bool) -> dict:
    eng = Engine()
    machine = Machine(eng, 4, 1, spec=TESTING_TINY, fs_interference=False)
    world = World(eng, machine.network, list(range(4)),
                  node_lookup=machine.node)
    scheduler = MovementScheduler(eng, enabled=scheduled)
    client = StagingClient(
        eng, machine, [], ncompute=4, nstaging=2,
        staging_nodes=list(machine.staging_node_ids) * 2,
        scheduler=scheduler,
    )
    comm_time = {}

    def app(comm):
        # dump a large buffer (64 MB logical) at t=0 ...
        step = OutputStep(
            group=GROUP, step=0, rank=comm.rank,
            values={"data": np.zeros(1024)}, volume_scale=8192.0,
        )
        yield from client.write_step(comm, step)
        total_comm = 0.0
        payload = np.zeros(1)  # stands in for 8 MB: wire_scale=1_000_000
        for _ in range(10):
            scheduler.enter_comm_phase(comm.node_id)
            t0 = comm.env.now
            yield from comm.allreduce(payload, wire_scale=1_000_000)
            total_comm += comm.env.now - t0
            scheduler.exit_comm_phase(comm.node_id)
            yield from comm.sleep(0.2)  # compute window
        comm_time[comm.rank] = total_comm

    def stager(env):
        # wait until every compute process has buffered its dump
        while client.outstanding_buffers < 4:
            yield env.timeout(0.005)
        for rank in range(4):
            yield from client.serve_fetch(
                rank, 0, list(machine.staging_node_ids)[0]
            )

    world.spawn(app)
    eng.process(stager(eng), name="stager")
    eng.run()
    return {
        "comm": max(comm_time.values()),
        "deferred": scheduler.deferred_fetches,
        "defer_seconds": scheduler.total_defer_seconds,
    }


def test_ablation_scheduling(once):
    def both():
        return run_scenario(True), run_scenario(False)

    scheduled, unscheduled = once(both)
    print()
    print(f"scheduled   comm={scheduled['comm']:.4f} s "
          f"(deferred {scheduled['deferred']} fetches, "
          f"{scheduled['defer_seconds']:.3f} s)")
    print(f"unscheduled comm={unscheduled['comm']:.4f} s")
    slowdown = unscheduled["comm"] / scheduled["comm"] - 1.0
    print(f"collective slowdown without scheduling: {slowdown * 100:.1f} %")
    # scheduling actually deferred movement out of comm phases
    assert scheduled["deferred"] > 0
    assert scheduled["defer_seconds"] > 0
    # without scheduling, collectives slow down measurably
    assert unscheduled["comm"] > scheduled["comm"] * 1.05
