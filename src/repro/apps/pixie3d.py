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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.adios.group import ChunkMeta, GroupDef, OutputStep, VarDef, VarKind
from repro.adios.io import IOMethod
from repro.apps.metrics import AppMetrics
from repro.core.operator import worst_rank
from repro.core.scheduler import MovementScheduler
from repro.machine.machine import Machine
from repro.mpi.communicator import Communicator
from repro.mpi.ops import SUM
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
        if self.ndumps < 1 or self.iterations_per_dump < 1:
            raise ValueError("need at least one dump and iteration")

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
    """The Pixie3D skeleton, runnable under any ADIOS transport."""

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

    # -- the rank program -----------------------------------------------------
    def main(self, comm: Communicator) -> Generator:
        """The per-rank Pixie3D program: reduce/bcast-dense inner loop."""
        cfg = self.config
        env = comm.env
        m = AppMetrics()
        start = env.now
        # Nothing reads the solver's reductions, only their phase and
        # wire volume: send one element, name the logical count per call.
        ws = self.world.wire_scale
        payload = np.zeros(1)
        scale = max(int(cfg.reduce_payload_logical_bytes / ws / 8), 1) * ws
        dump = 0
        for it in range(cfg.ndumps * cfg.iterations_per_dump):
            # Newton-Krylov inner loop: short computations laced with
            # reduce/bcast rounds — nearly always inside a comm phase.
            for _ in range(cfg.collective_rounds_per_iteration):
                t0 = env.now
                yield env.timeout(
                    COMPUTE_SECONDS_BETWEEN_COLLECTIVES
                    * (1.0 + self.staging_steal)
                )
                m.compute += env.now - t0
                t0 = env.now
                if self.scheduler is not None:
                    self.scheduler.enter_comm_phase(comm.node_id)
                try:
                    yield from comm.reduce(payload, op=SUM, root=0, wire_scale=scale)
                    yield from comm.bcast(payload, root=0, wire_scale=scale)
                finally:
                    if self.scheduler is not None:
                        self.scheduler.exit_comm_phase(comm.node_id)
                m.comm += env.now - t0

            if (it + 1) % cfg.iterations_per_dump == 0:
                step = self.make_step(comm.rank, dump)
                t0 = env.now
                yield from self.transport.write_step(comm, step)
                m.io_blocking += env.now - t0
                dump += 1
        m.total = env.now - start
        self.metrics[comm.rank] = m
        return m

    def spawn(self):
        """Start the skeleton on every rank of its world."""
        return self.world.spawn(self.main)

    # -- aggregated views --------------------------------------------------------
    def max_metrics(self) -> AppMetrics:
        """Worst-rank wall-time view (what total-time plots report)."""
        return worst_rank(self.metrics.values())
