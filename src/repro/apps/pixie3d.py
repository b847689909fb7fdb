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

One process runs every rank of the world (one per XT4 core): from one
dump to the next they share a clock, so the world makes one compute
timeout and one collective arrival for all of them, and each node one
comm phase.  Only a dump parts their clocks; ``tests/`` keeps the
program as one process per rank and checks the two agree rank for
rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache(maxsize=8)
def _factors(n: int) -> tuple[np.ndarray, ...]:
    """What a dump's block shares across ranks and steps at size *n*:
    the variable index, the ``cos(2πy)`` and ``cos(πz)`` factors, and
    the per-variable offset, each shaped to broadcast into ``(8, n, n, n)``."""
    vi = np.arange(len(PIXIE3D_VARS))
    y = (np.arange(n) + 0.5) / n
    z = (np.arange(n) + 0.5) / n
    return (
        vi,
        np.cos(2 * np.pi * y)[None, None, :, None],
        np.cos(np.pi * z)[None, None, None, :],
        (0.1 * vi)[:, None, None, None],
    )


class Pixie3DApplication:
    """The Pixie3D skeleton, runnable under any ADIOS transport.

    ``metrics`` holds each rank's :class:`AppMetrics`; :meth:`spawn`
    starts one process for the whole world (module docstring).
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
        vi, cos_y, cos_z, offset = _factors(n)
        x = (np.arange(lo, lo + n) + 0.5) / gx
        phase = 0.37 * vi + 0.11 * step + _FIELD_SEED * 1e-3
        block = (
            np.sin(2 * np.pi * (x[None, :] + phase[:, None]))[:, :, None, None]
            * cos_y * cos_z + offset
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
        """Start the skeleton: one process for its whole world."""
        world = self.world
        nodes: dict[int, list[int]] = {}
        for rank, node in enumerate(world.rank_nodes):
            nodes.setdefault(node, []).append(rank)
        return [world.env.process(self._main(nodes), name=world.name)]

    def _main(self, nodes: dict[int, list[int]]) -> Generator:
        """The program of every rank: the reduce/bcast-dense loop.

        Between two dumps every rank is on one clock, so the world makes
        one compute timeout, one arrival and one resume per collective
        for all of them.  Each node of *nodes* (node -> its ranks) still
        enters and leaves its comm phase, in ``order``: the order its
        ranks left the last dump, spawn order before the first.
        ``arrived`` holds each rank's own arrival at the next collective
        when a dump gave them different clocks; compute and comm are
        measured from it, per rank.
        """
        cfg, world, sched = self.config, self.world, self.scheduler
        env = world.env
        ranks = tuple(range(world.size))
        order = list(nodes)
        metrics = [AppMetrics() for _ in ranks]
        start = env.now
        # Nothing reads the solver's reductions, only their phase and
        # wire volume: one float (8 bytes, as one float64 element)
        # stands for every rank, and each call names the logical count.
        ws = world.wire_scale
        payloads = (0.0,) * len(ranks)
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
                        for node in order:
                            sched.enter_comm_phase(node)
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
                        for node in order:
                            sched.exit_comm_phase(node)
                for m, t0 in zip(metrics, arrived):
                    m.comm += env.now - t0
                arrived = None
            if (it + 1) % cfg.iterations_per_dump == 0:
                arrived = yield from self._dump(
                    nodes, order, metrics, it // cfg.iterations_per_dump,
                    start, last=it + 1 == niter,
                )

    def _dump(
        self, nodes: dict[int, list[int]], order: list[int],
        metrics: list[AppMetrics], dump: int, start: float, *, last: bool,
    ) -> Generator:
        """Process body: every rank writes dump *dump*.

        File-system and staging timing is per rank, so each rank writes
        in a process of its own, started in rank order.  Rewrites
        *order* to the order in which each node's ranks finished, and
        returns, once all are done, each rank's arrival at the next
        collective (None after the last dump).
        """
        env, comm, name = self.world.env, self.world.comm, self.world.name
        procs = [
            env.process(
                self._rank_dump(comm(r), m, dump, start, last=last),
                name=f"{name}[{r}]",
            )
            for r, m in enumerate(metrics)
        ]
        if last:
            yield env.all_of(procs)
            return None
        order.clear()
        done = []
        for node, ranks in nodes.items():
            node_done = env.all_of([procs[r] for r in ranks])
            node_done.callbacks.append(lambda _ev, node=node: order.append(node))
            done.append(node_done)
        yield env.all_of(done)
        return tuple(p.value for p in procs)

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
