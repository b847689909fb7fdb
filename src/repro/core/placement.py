"""Alternative operator placements: In-Compute-Node and Offline.

The paper's evaluation (§V) contrasts three placements of the same
operators:

- **Staging** — :class:`~repro.core.staging.StagingService` (async,
  hidden from the simulation);
- **In-Compute-Node** — this module's :class:`InComputeNodeRunner`:
  the identical operator pipeline executes *synchronously inside the
  application world* at write time, so every phase is visible to the
  simulation (sorting's all-to-all shuffle across 16,384 ranks is the
  pathological case, Fig. 7(a));
- **Offline** — :class:`OfflineCostModel`: data is first written raw,
  then read back, processed, and (for reorganisation-type operators)
  rewritten — the §V.B.3 tradeoff of 3x vs 1x trips through the disk
  controllers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.adios.group import OutputStep
from repro.core.operator import (
    OperatorContext, PreDatAOperator, charge, combine_to_finalize, worst_rank,
)
from repro.machine.machine import Machine
from repro.mpi.communicator import Communicator

__all__ = ["InComputeTiming", "InComputeNodeRunner", "OfflineCostModel", "OfflineEstimate"]


@dataclass
class InComputeTiming:
    """Per-rank wall-time breakdown of one in-compute-node operation."""

    compute: float = 0.0  # partial_calculate + map + combine + reduce
    communicate: float = 0.0  # aggregation collectives + shuffle
    io: float = 0.0  # finalize-side writes

    @property
    def total(self) -> float:
        return self.compute + self.communicate + self.io


class InComputeNodeRunner:
    """Runs PreDatA operators synchronously inside the compute world.

    All phases execute on the compute ranks themselves; wall time is
    charged against the simulation, exactly like the paper's
    In-Compute-Node configuration.
    """

    def __init__(self, machine: Machine, operators: list[PreDatAOperator]):
        self.machine = machine
        self.operators = list(operators)
        #: op name -> step -> rank -> finalize result
        self.results: dict[str, dict[int, dict[int, Any]]] = {
            op.name: {} for op in self.operators
        }
        #: op name -> step -> rank -> InComputeTiming
        self.timings: dict[str, dict[int, dict[int, InComputeTiming]]] = {
            op.name: {} for op in self.operators
        }
        #: ``((operator, step), aggregate)`` of the latest allgather: every
        #: rank receives the same partials, so the first rank to resume
        #: aggregates and the others share its result, as the staging
        #: ranks share the service's
        self._aggregated: tuple = (None, None)

    def run_step(self, comm: Communicator, step: OutputStep):
        """Process body: execute every operator on *step* synchronously.

        Stages 5–7 are the staging service's own
        :func:`~repro.core.operator.combine_to_finalize`, run over the
        whole compute world on one core.  Returns total visible seconds
        across all operators.
        """
        env = comm.env
        node = comm.node
        start = env.now
        for op in self.operators:
            # pass 1 on own data
            t0 = env.now
            yield from charge(node, op.partial_flops(step), 1)
            partial = op.partial_calculate(step)
            t_partial = env.now - t0

            # aggregation across the compute world; partial results are
            # fixed-size summaries, so no logical-volume inflation applies
            t0 = env.now
            allp = yield from comm.allgather(partial, wire_scale=1.0)
            key = (op, step.step)
            if self._aggregated[0] != key:
                present = [p for p in allp if p is not None]
                self._aggregated = (key, op.aggregate(present) if present else None)
            aggregated = self._aggregated[1]
            t_aggregate = env.now - t0

            ctx = OperatorContext(
                rank=comm.rank,
                nworkers=comm.size,
                step=step.step,
                aggregated=aggregated,
                placement="compute",
                volume_scale=step.volume_scale,
            )
            op.initialize(ctx)

            # map on own chunk, then combine → shuffle → reduce → finalize
            t_map = env.now
            yield from charge(node, op.map_flops(step), 1)
            items = list(op.map(ctx, step))
            res, times, _shuffled = yield from combine_to_finalize(
                op, ctx, items, comm, range(comm.size), 1, f"compute{comm.rank}"
            )
            _t_combine, t_shuffle, t_reduce, t_finalize, t_end = times

            self.results[op.name].setdefault(step.step, {})[comm.rank] = res
            self.timings[op.name].setdefault(step.step, {})[comm.rank] = InComputeTiming(
                compute=t_partial + (t_shuffle - t_map) + (t_finalize - t_reduce),
                communicate=t_aggregate + (t_reduce - t_shuffle),
                io=t_end - t_finalize,  # finalize (file-system writes are visible here)
            )
        return env.now - start

    def step_timing(self, op_name: str, step: int) -> InComputeTiming:
        """Max-across-ranks view of one operator's step timing."""
        return worst_rank(self.timings[op_name][step].values())


@dataclass(frozen=True)
class OfflineEstimate:
    """Cost estimate for the offline placement of one operation."""

    read_seconds: float
    process_seconds: float
    write_seconds: float
    extra_storage_bytes: float
    disk_controller_trips: int

    @property
    def latency(self) -> float:
        return self.read_seconds + self.process_seconds + self.write_seconds


#: share of the file system an offline analysis job sustains
AVAILABLE_FRACTION = 0.25


class OfflineCostModel:
    """Analytic model of the §V.B.3 offline alternative.

    The raw dump is already on disk; the offline job reads it back,
    processes it on ``n_analysis_cores``, and — for operations that do
    not reduce the data (sorting, layout reorganisation) — writes an
    equivalent volume back, tripling disk-controller traffic.

    :data:`AVAILABLE_FRACTION` is the share of the shared file system
    an offline analysis job actually sustains: it competes with the
    simulation's own dumps and every other job on the machine (the
    reason the paper estimates "hundreds of seconds" for a 1 TB step).
    """

    def __init__(self, machine: Machine, n_analysis_cores: int = 512):
        if n_analysis_cores < 1:
            raise ValueError("need at least one analysis core")
        self.machine = machine
        self.n_analysis_cores = n_analysis_cores

    def estimate(
        self,
        data_bytes: float,
        *,
        reduces_data: bool,
        flops_per_byte: float = 2.0,
        output_bytes: float = 0.0,
    ) -> OfflineEstimate:
        """Cost of processing *data_bytes* offline (read back, process, rewrite when the operation does not reduce the data)."""
        fs = self.machine.spec.filesystem
        nclients = max(
            1, self.n_analysis_cores // self.machine.spec.node.cores
        )
        stream = (
            min(fs.aggregate_bandwidth, fs.client_bandwidth * nclients)
            * AVAILABLE_FRACTION
        )
        read_s = data_bytes / stream
        flops = data_bytes * flops_per_byte
        process_s = flops / (
            self.machine.spec.node.core_flops * self.n_analysis_cores
        )
        if reduces_data:
            write_bytes = output_bytes
            extra_storage = output_bytes
            trips = 2  # raw write already happened + read back
        else:
            write_bytes = data_bytes if output_bytes == 0.0 else output_bytes
            extra_storage = write_bytes
            trips = 3  # write raw, read back, write reorganised
        write_s = write_bytes / stream if write_bytes else 0.0
        return OfflineEstimate(
            read_seconds=read_s,
            process_seconds=process_s,
            write_seconds=write_s,
            extra_storage_bytes=extra_storage,
            disk_controller_trips=trips,
        )
