"""GTC skeleton application (§II.A).

Reproduced properties:

- **Output structure**: two 2-D particle arrays (electrons, ions), one
  row per particle with 8 attributes — coordinates (3), velocities (3),
  weight, and the global *label*.  The label is assigned at start-up
  and never changes, but particles migrate between processes, so each
  dump's arrays arrive out-of-order — the reason the sorting operator
  exists.
- **Volumes**: 132 MB per process per dump at production settings
  (2x10^6 particles/process), weak-scaled; ~120 s between dumps.
- **Cadence**: long computation phases (the gyrokinetic push) broken
  by collective bursts (field solve allreduces); the skeleton brackets
  the bursts with scheduler comm-phase markers so PreDatA's scheduled
  movement can avoid them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Generator, Optional

import numpy as np

from repro.adios.group import GroupDef, OutputStep, VarDef, VarKind
from repro.adios.io import IOMethod
from repro.apps.metrics import AppMetrics
from repro.core.operator import worst_rank
from repro.core.placement import InComputeNodeRunner
from repro.core.scheduler import MovementScheduler
from repro.machine.machine import Machine
from repro.mpi.communicator import Communicator
from repro.mpi.world import World

__all__ = ["GTC_GROUP", "GTCConfig", "GTCApplication", "gtc_particles"]

#: Column layout of a GTC particle row.
COL_X, COL_Y, COL_Z = 0, 1, 2
COL_VX, COL_VY, COL_VZ = 3, 4, 5
COL_WEIGHT = 6
COL_LABEL = 7

GTC_GROUP = GroupDef(
    "gtc_particles",
    (
        VarDef("electrons", "float64", VarKind.LOCAL_ARRAY, ndim=2),
        VarDef("ions", "float64", VarKind.LOCAL_ARRAY, ndim=2),
    ),
)


@lru_cache(maxsize=4)
def _global_labels(seed: int, step: int, n: int) -> np.ndarray:
    """The read-only permutation of ``range(n)`` every rank slices its
    labels from, drawn once per dump and species rather than per rank."""
    perm = np.random.default_rng(seed + 7919 * step).permutation(n)
    perm.flags.writeable = False
    return perm


def gtc_particles(
    rank: int, nprocs: int, rows: int, *, step: int = 0, seed: int = 42
) -> np.ndarray:
    """Synthetic out-of-order particles currently living on *rank*.

    Labels form a global permutation of ``nprocs * rows`` so that across
    all ranks every particle appears exactly once, in migrated
    (shuffled) order — statistically faithful to GTC's arrays.
    """
    labels = _global_labels(seed, step, nprocs * rows)[rank * rows : (rank + 1) * rows]
    rng = np.random.default_rng(seed + 104729 * step + rank)
    data = np.empty((rows, 8))
    theta = rng.uniform(0, 2 * np.pi, rows)
    r = rng.uniform(0.1, 1.0, rows)
    data[:, COL_X] = r * np.cos(theta)
    data[:, COL_Y] = r * np.sin(theta)
    data[:, COL_Z] = rng.uniform(-1, 1, rows)
    data[:, COL_VX:COL_VZ + 1] = rng.normal(0.0, 1.0, (rows, 3))
    data[:, COL_WEIGHT] = rng.uniform(0, 1, rows)
    data[:, COL_LABEL] = labels
    return data


#: seed of the electron array; the ion array uses the next one
_PARTICLE_SEED = 42


@dataclass(frozen=True)
class GTCConfig:
    """GTC skeleton parameters.

    ``nprocs_logical`` is the paper-scale process count the run stands
    for; ``functional_rows`` is the number of particle rows actually
    materialised per array (the rest is represented by
    ``volume_scale``).
    """

    nprocs_logical: int = 64
    particles_per_proc: int = 2_000_000
    functional_rows: int = 200
    iterations_per_dump: int = 10
    ndumps: int = 2
    compute_seconds_per_iteration: float = 10.8
    comm_rounds_per_iteration: int = 2
    comm_payload_logical_bytes: float = 4e6

    def __post_init__(self) -> None:
        if self.functional_rows < 1 or self.particles_per_proc < 1:
            raise ValueError("particle counts must be positive")
        if self.ndumps < 1 or self.iterations_per_dump < 1:
            raise ValueError("need at least one dump and one iteration")

    @property
    def volume_scale(self) -> float:
        """Logical-to-functional byte ratio of the particle arrays."""
        return self.particles_per_proc / self.functional_rows

    @property
    def logical_bytes_per_proc(self) -> float:
        """Per-process dump volume across both arrays (~132 MB default)."""
        return self.particles_per_proc * 8 * 8  # n rows x 8 attrs x 8 B

    @property
    def io_interval_seconds(self) -> float:
        return self.iterations_per_dump * self.compute_seconds_per_iteration


class GTCApplication:
    """The GTC skeleton, runnable under any ADIOS transport."""

    def __init__(
        self,
        machine: Machine,
        world: World,
        transport: IOMethod,
        config: Optional[GTCConfig] = None,
        *,
        scheduler: Optional[MovementScheduler] = None,
        runner: Optional[InComputeNodeRunner] = None,
        staging_steal: float = 0.0,
    ):
        """``staging_steal``: fraction of each compute phase lost to the
        PreDatA compute-node runtime (buffer management + RDMA
        servicing); GTC's OpenMP workers absorb it more gracefully than
        Pixie3D's 1-process-per-core layout, so keep it small."""
        if staging_steal < 0:
            raise ValueError("staging_steal must be non-negative")
        self.machine = machine
        self.world = world
        self.transport = transport
        self.config = config or GTCConfig()
        self.scheduler = scheduler
        self.runner = runner
        self.staging_steal = staging_steal
        self.metrics: dict[int, AppMetrics] = {}
        # Half the functional rows per species (two arrays per dump).
        self._rows = max(self.config.functional_rows // 2, 1)

    # -- data -----------------------------------------------------------
    def make_step(self, rank: int, step: int) -> OutputStep:
        """Build one rank's output step (fresh migrated particles)."""
        cfg = self.config
        electrons = gtc_particles(
            rank, self.world.size, self._rows, step=step, seed=_PARTICLE_SEED
        )
        ions = gtc_particles(
            rank, self.world.size, self._rows, step=step, seed=_PARTICLE_SEED + 1
        )
        return OutputStep(
            group=GTC_GROUP,
            step=step,
            rank=rank,
            values={"electrons": electrons, "ions": ions},
            volume_scale=cfg.volume_scale,
        )

    # -- the rank program ---------------------------------------------------
    def main(self, comm: Communicator) -> Generator:
        """The per-rank GTC program: compute, collectives, periodic dumps."""
        cfg = self.config
        env = comm.env
        m = AppMetrics()
        start = env.now
        # Nothing reads the field-solve data, only its phase and wire
        # volume: send one element, name the logical count per call.
        ws = self.world.wire_scale
        payload = np.zeros(1)
        scale = max(int(cfg.comm_payload_logical_bytes / ws / 8), 1) * ws
        dump = 0
        total_iterations = cfg.ndumps * cfg.iterations_per_dump
        for it in range(total_iterations):
            # gyrokinetic push: pure computation, overlappable with
            # asynchronous data movement.
            t0 = env.now
            yield env.timeout(
                cfg.compute_seconds_per_iteration * (1.0 + self.staging_steal)
            )
            m.compute += env.now - t0

            # field-solve collective burst: staging fetches must yield.
            t0 = env.now
            if self.scheduler is not None:
                self.scheduler.enter_comm_phase(comm.node_id)
            try:
                for _ in range(cfg.comm_rounds_per_iteration):
                    yield from comm.allreduce(payload, wire_scale=scale)
            finally:
                if self.scheduler is not None:
                    self.scheduler.exit_comm_phase(comm.node_id)
            m.comm += env.now - t0

            if (it + 1) % cfg.iterations_per_dump == 0:
                step = self.make_step(comm.rank, dump)
                if self.runner is not None:
                    t0 = env.now
                    yield from self.runner.run_step(comm, step)
                    m.operations += env.now - t0
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

    # -- aggregated views ----------------------------------------------------
    def max_metrics(self) -> AppMetrics:
        """Worst-rank view (what total-execution-time plots report)."""
        return worst_rank(self.metrics.values())
