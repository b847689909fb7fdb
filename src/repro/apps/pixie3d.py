"""Pixie3D skeleton application (§II.B, §V.C).

Reproduced properties:

- **Output structure**: eight double-precision 3-D arrays — mass
  density, three linear-momentum components, three vector-potential
  components, temperature — each a partial chunk of a global array
  (32^3 local blocks at production settings, ~2 MB/process/dump).
- **Cadence**: the fully-implicit Newton-Krylov solve makes the inner
  loop *communication-dense*: multiple MPI_Reduce/MPI_Bcast rounds per
  iteration with only ~0.7 s of computation in between — the property
  that leaves asynchronous staging little room to hide data movement
  (§V.C: staging slows Pixie3D 0.01–0.7 %).
- **Decomposition**: the skeleton uses a 1-D slab decomposition of the
  first global dimension (the paper's 3-D decomposition reduces to the
  same chunk-count-vs-extents economics that Fig. 11 measures; see
  DESIGN.md substitutions).

One process per node runs the ranks the node hosts (one per XT4 core):
from one collective to the next they share a clock, so the node makes
one compute timeout, one comm phase and one collective arrival for all
of them.  Only a dump parts their clocks; ``tests/`` keeps the program
as one process per rank and checks the two agree rank for rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Generator, Optional

import numpy as np

from repro.adios.group import ChunkMeta, GroupDef, OutputStep, VarDef, VarKind
from repro.adios.io import IOMethod
from repro.apps.metrics import AppMetrics
from repro.core.operator import worst_rank
from repro.core.scheduler import MovementScheduler
from repro.machine.machine import Machine
from repro.mpi.communicator import Communicator
from repro.mpi.world import World
from repro.sim.engine import Process

__all__ = [
    "PIXIE3D_VARS",
    "Pixie3DConfig",
    "Pixie3DApplication",
    "pixie3d_group",
]

#: The eight output variables (§II.B).
PIXIE3D_VARS = ("rho", "px", "py", "pz", "ax", "ay", "az", "temp")


def pixie3d_group() -> GroupDef:
    """The eight-variable Pixie3D output group (all 3-D global arrays)."""
    return GroupDef(
        "pixie3d_fields",
        tuple(
            VarDef(v, "float64", VarKind.GLOBAL_ARRAY, ndim=3)
            for v in PIXIE3D_VARS
        ),
    )


@dataclass(frozen=True)
class Pixie3DConfig:
    """Pixie3D skeleton parameters (defaults mirror §V.C)."""

    nprocs_logical: int = 64
    local_size: int = 32  # production local block edge (32^3)
    functional_size: int = 8  # materialised local block edge
    iterations_per_dump: int = 18
    ndumps: int = 2
    collective_rounds_per_iteration: int = 8
    reduce_payload_logical_bytes: float = 6.4e4

    def __post_init__(self) -> None:
        if self.functional_size < 2 or self.local_size < self.functional_size:
            raise ValueError("bad local/functional sizes")
        if (self.ndumps < 1 or self.iterations_per_dump < 1
                or self.collective_rounds_per_iteration < 1):
            raise ValueError("need at least one dump, iteration and round")

    @property
    def volume_scale(self) -> float:
        return (self.local_size / self.functional_size) ** 3

    @property
    def logical_bytes_per_proc(self) -> float:
        """Eight local blocks per dump (~2 MB at 32^3)."""
        return 8 * self.local_size**3 * 8


#: seconds of computation between two reduce/bcast rounds (§V.C)
COMPUTE_SECONDS_BETWEEN_COLLECTIVES = 0.7
#: phase offset of the synthetic fields
_FIELD_SEED = 11


class Pixie3DApplication:
    """The Pixie3D skeleton, runnable under any ADIOS transport.

    ``metrics`` holds each rank's :class:`AppMetrics`; :meth:`spawn`
    starts one process per node of the world (module docstring).
    """

    def __init__(
        self,
        machine: Machine,
        world: World,
        transport: IOMethod,
        config: Optional[Pixie3DConfig] = None,
        *,
        scheduler: Optional[MovementScheduler] = None,
        staging_steal: float = 0.0,
    ):
        """``staging_steal`` models the PreDatA compute-node runtime
        (the DataStager server thread handling buffer management and
        RDMA servicing) stealing a fraction of each computation phase —
        the §V.C mechanism by which staging slightly slows Pixie3D,
        whose 1-process-per-core layout leaves no spare core."""
        if staging_steal < 0:
            raise ValueError("staging_steal must be non-negative")
        self.machine = machine
        self.world = world
        self.transport = transport
        self.config = config or Pixie3DConfig()
        self.scheduler = scheduler
        self.staging_steal = staging_steal
        self.metrics: dict[int, AppMetrics] = {}
        self.group = pixie3d_group()
        #: rank writes queued in this instant, and the process to start them
        self._queued_dumps: Optional[tuple[list, Process]] = None

    # -- data ------------------------------------------------------------
    def make_step(self, rank: int, step: int) -> OutputStep:
        """Build one rank's output step (eight 3-D field chunks).

        Each field is a smooth slab of a global field, separable into
        three 1-D factors: ``sin(2π(x + phase)) · cos(2πy) · cos(πz)``
        plus a per-variable offset.  All eight are one ``(8, n, n, n)``
        block built by broadcasting the factors; each variable is one
        C-contiguous slice of it, and all share one :class:`ChunkMeta`.
        """
        cfg = self.config
        n = cfg.functional_size
        gx = self.world.size * n
        lo = rank * n
        vi = np.arange(len(PIXIE3D_VARS))
        x = (np.arange(lo, lo + n) + 0.5) / gx
        y = (np.arange(n) + 0.5) / n
        z = (np.arange(n) + 0.5) / n
        phase = 0.37 * vi + 0.11 * step + _FIELD_SEED * 1e-3
        block = (
            np.sin(2 * np.pi * (x[None, :] + phase[:, None]))[:, :, None, None]
            * np.cos(2 * np.pi * y)[None, None, :, None]
            * np.cos(np.pi * z)[None, None, None, :]
            + (0.1 * vi)[:, None, None, None]
        )
        block[0] += 2.0  # mass density stays strictly positive
        chunk = ChunkMeta((gx, n, n), (lo, 0, 0))
        return OutputStep(
            group=self.group,
            step=step,
            rank=rank,
            values=dict(zip(PIXIE3D_VARS, block)),
            chunks=dict.fromkeys(PIXIE3D_VARS, chunk),
            volume_scale=cfg.volume_scale,
        )

    # -- the program -------------------------------------------------------------
    @property
    def _compute_seconds(self) -> float:
        """Computation before each reduce/bcast round, staging steal included."""
        return COMPUTE_SECONDS_BETWEEN_COLLECTIVES * (1.0 + self.staging_steal)

    def spawn(self):
        """Start the skeleton: one process per node of its world."""
        world = self.world
        nodes: dict[int, list[int]] = {}
        for rank, node in enumerate(world.rank_nodes):
            nodes.setdefault(node, []).append(rank)
        return [
            world.env.process(
                self._node_main(tuple(ranks)), name=f"{world.name}@node{node}"
            )
            for node, ranks in nodes.items()
        ]

    def _node_main(self, ranks: tuple[int, ...]) -> Generator:
        """The program of the ranks one node hosts: reduce/bcast-dense loop.

        Between two collectives the ranks share one clock, so the node
        makes one compute timeout, one comm phase and one arrival per
        collective for all of them.  ``arrived`` holds each rank's own
        arrival at the next collective when a dump gave them different
        clocks; compute and comm are measured from it, per rank.
        """
        cfg, world, sched = self.config, self.world, self.scheduler
        env = world.env
        node_id = world.rank_nodes[ranks[0]]
        metrics = [AppMetrics() for _ in ranks]
        start = env.now
        # Nothing reads the solver's reductions, only their phase and
        # wire volume: one element stands for every rank of the node,
        # and each call names the logical count.
        ws = world.wire_scale
        payloads = (np.zeros(1),) * len(ranks)
        scale = max(int(cfg.reduce_payload_logical_bytes / ws / 8), 1) * ws
        arrived = None
        niter = cfg.ndumps * cfg.iterations_per_dump
        for it in range(niter):
            # Newton-Krylov inner loop: short computations laced with
            # reduce/bcast rounds — nearly always inside a comm phase.
            for _ in range(cfg.collective_rounds_per_iteration):
                if arrived is None:
                    t0 = env.now
                    yield env.timeout(self._compute_seconds)
                    dt = env.now - t0
                    for m in metrics:
                        m.compute += dt
                    if sched is not None:
                        sched.enter_comm_phase(node_id)
                    arrived = (env.now,) * len(ranks)
                try:
                    yield from world.collective(
                        ranks, "reduce", payloads, root=0, wire_scale=scale
                    )
                    yield from world.collective(
                        ranks, "bcast", payloads, root=0, wire_scale=scale
                    )
                finally:
                    if sched is not None:
                        sched.exit_comm_phase(node_id)
                for m, t0 in zip(metrics, arrived):
                    m.comm += env.now - t0
                arrived = None
            if (it + 1) % cfg.iterations_per_dump == 0:
                arrived = yield from self._dump(
                    ranks, metrics, it // cfg.iterations_per_dump, start,
                    last=it + 1 == niter,
                )

    def _dump(
        self, ranks: tuple[int, ...], metrics: list[AppMetrics], dump: int,
        start: float, *, last: bool,
    ) -> Generator:
        """Process body: the node's ranks write dump *dump*.

        File-system and staging timing is per rank, so each rank writes
        in a process of its own, started together with every other
        node's in rank order.  Returns, once the node's ranks are done,
        each one's arrival at the next collective (None after the last
        dump).
        """
        env, comm = self.world.env, self.world.comm
        if self._queued_dumps is None:
            self._queued_dumps = ([], env.process(self._start_dumps()))
        queued, starter = self._queued_dumps
        queued.extend(
            (r, self._rank_dump(comm(r), m, dump, start, last=last))
            for r, m in zip(ranks, metrics)
        )
        started = yield starter
        procs = [started[r] for r in ranks]
        yield env.all_of(procs)
        return None if last else tuple(p.value for p in procs)

    def _start_dumps(self) -> Generator:
        """Process body: start the rank writes queued in this instant.

        Node processes queue their ranks' writes as a collective resumes
        them, and this process runs after all of them, so the writes
        begin in rank order, as one process per rank would reach them.
        Returns ``{rank: write process}``.
        """
        (queued, _starter), self._queued_dumps = self._queued_dumps, None
        queued.sort(key=itemgetter(0))
        env = self.world.env
        return {
            rank: env.process(body, name=f"{self.world.name}[{rank}]")
            for rank, body in queued
        }
        yield  # pragma: no cover - generator marker

    def _rank_dump(
        self, comm: Communicator, m: AppMetrics, dump: int, start: float, *,
        last: bool,
    ) -> Generator:
        """Process body: one rank's write, then its computation up to its
        arrival at the next collective, where the node's first rank to
        arrive enters the node's comm phase."""
        env = comm.env
        step = self.make_step(comm.rank, dump)
        t0 = env.now
        yield from self.transport.write_step(comm, step)
        m.io_blocking += env.now - t0
        if last:
            m.total = env.now - start
            self.metrics[comm.rank] = m
            return None
        t0 = env.now
        yield env.timeout(self._compute_seconds)
        m.compute += env.now - t0
        sched = self.scheduler
        if sched is not None and not sched.in_comm_phase(comm.node_id):
            sched.enter_comm_phase(comm.node_id)
        return env.now

    # -- aggregated views --------------------------------------------------------
    def max_metrics(self) -> AppMetrics:
        """Worst-rank wall-time view (what total-time plots report)."""
        return worst_rank(self.metrics.values())
