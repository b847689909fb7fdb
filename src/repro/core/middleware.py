"""The :class:`PreDatA` facade: wiring client, scheduler and service.

Assembles the full Staging configuration on a
:class:`~repro.machine.Machine`:

- a staging :class:`~repro.mpi.World` (``procs_per_staging_node`` MPI
  processes per staging node, each with four worker threads — the
  paper's 2x4 layout);
- the compute-node :class:`~repro.core.client.StagingClient` and its
  :class:`~repro.core.client.StagingTransport` (the ADIOS method the
  application writes through);
- the :class:`~repro.core.scheduler.MovementScheduler`;
- the :class:`~repro.core.staging.StagingService` running the
  Initialize/Map/Shuffle/Reduce/Finalize pipeline.

Typical use::

    predata = PreDatA(env, machine, group, operators,
                      ncompute_procs=64, nsteps=3, volume_scale=100.0)
    predata.start()
    # ... application writes via predata.transport ...
    yield from predata.drain()
    report = predata.service.step_report(0)
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.adios.group import GroupDef
from repro.adios.io import IOMethod, SyncMPIIO
from repro.core.client import StagingClient, StagingTransport
from repro.core.operator import PreDatAOperator
from repro.core.scheduler import MovementScheduler
from repro.core.staging import StagingConfig, StagingService
from repro.faults.config import ResilienceConfig
from repro.faults.recovery import ResilienceController
from repro.flow import FlowConfig, FlowControl
from repro.machine.machine import Machine
from repro.mpi.world import World
from repro.sim.engine import Engine

__all__ = ["PreDatA"]


class PreDatA:
    """One PreDatA deployment: staging area + compute-side runtime."""

    def __init__(
        self,
        env: Engine,
        machine: Machine,
        group: GroupDef,
        operators: list[PreDatAOperator],
        *,
        ncompute_procs: int,
        nsteps: int = 1,
        procs_per_staging_node: int = 2,
        volume_scale: float = 1.0,
        scheduled_movement: bool = True,
        fetch_pipeline_depth: int = 2,
        fetch_rate_cap: Optional[float] = None,
        route: Optional[Callable[[int, int, int], int]] = None,
        model_size: Optional[int] = None,
        chunk_order: Optional[Callable] = None,
        resilience: Optional[ResilienceConfig] = None,
        fallback_io: Optional[IOMethod] = None,
        flow: Optional[FlowConfig] = None,
    ):
        """``resilience`` enables the failure detection/recovery protocol
        (heartbeats, commit barrier, failover routing, degradation);
        ``fallback_io`` is the synchronous transport degraded writes use
        (default: a fresh ``SyncMPIIO`` on the machine's file system).
        ``flow`` enables the flow-control subsystem (credit-based
        admission, per-staging-node buffer pools with spill-to-FS,
        pressure-aware fetch throttling); None — the default — keeps
        the pre-flow pipeline byte-identical."""
        if machine.n_staging_nodes < 1:
            raise ValueError("machine has no staging nodes allocated")
        if ncompute_procs < 1:
            raise ValueError("need at least one compute process")
        self.env = env
        self.machine = machine
        self.group = group
        self.operators = list(operators)

        staging_rank_nodes = [
            node_id
            for node_id in machine.staging_node_ids
            for _ in range(procs_per_staging_node)
        ]
        self.staging_world = World(
            env,
            machine.network,
            staging_rank_nodes,
            name="staging",
            node_lookup=machine.node,
            wire_scale=volume_scale,
            model_size=model_size,
        )
        self.scheduler = MovementScheduler(env, enabled=scheduled_movement)
        self.client = StagingClient(
            env,
            machine,
            self.operators,
            ncompute=ncompute_procs,
            nstaging=self.staging_world.size,
            staging_nodes=staging_rank_nodes,
            scheduler=self.scheduler,
            route=route,
            fetch_rate_cap=fetch_rate_cap,
            resilient=resilience is not None,
        )
        self.flow: Optional[FlowControl] = None
        if flow is not None:
            self.flow = FlowControl(
                env,
                machine,
                flow,
                staging_rank_nodes=staging_rank_nodes,
                fetch_rate_cap=fetch_rate_cap,
            )
        if self.flow is not None:
            self.client.flow = self.flow
            self.scheduler.pressure = self.flow.pressure
        self.fallback_io: Optional[IOMethod] = fallback_io
        if self.fallback_io is None and (
            resilience is not None
            or (self.flow is not None and self.flow.config.codel_target is not None)
        ):
            # CoDel-degraded writes need a synchronous path to land on
            self.fallback_io = SyncMPIIO(machine.filesystem)
        self.transport = StagingTransport(self.client, fallback=self.fallback_io)
        self.service = StagingService(
            env,
            machine,
            self.staging_world,
            self.client,
            group,
            self.operators,
            StagingConfig(
                fetch_pipeline_depth=fetch_pipeline_depth,
                nsteps=nsteps,
                chunk_order=chunk_order,
                resilience=resilience,
            ),
        )
        self.controller: Optional[ResilienceController] = None
        if resilience is not None:
            self.controller = ResilienceController(
                env, machine, self.service, resilience, fallback=self.fallback_io
            )

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Launch the staging-area program (separate 'MPI job')."""
        self.service.start()
        if self.controller is not None:
            self.controller.arm()

    def drain(self, timeout: Optional[float] = None):
        """Process body: wait for the staging area to finish all steps."""
        yield from self.service.drain(timeout)

    # -- convenience ------------------------------------------------------------
    @property
    def nstaging_procs(self) -> int:
        return self.staging_world.size
