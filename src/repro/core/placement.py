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

import inspect
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.adios.group import OutputStep
from repro.core.operator import Emit, OperatorContext, PreDatAOperator
from repro.machine.filesystem import ParallelFileSystem
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

    def run_step(self, comm: Communicator, step: OutputStep):
        """Process body: execute every operator on *step* synchronously.

        Returns total visible seconds across all operators.
        """
        env = comm.env
        node = comm.node
        scale = step.volume_scale
        start = env.now
        for op in self.operators:
            timing = InComputeTiming()

            # pass 1 on own data
            t0 = env.now
            pflops = op.partial_flops(step)
            if pflops > 0 and node is not None:
                yield from node.compute(pflops)
            partial = op.partial_calculate(step)
            timing.compute += env.now - t0

            # aggregation across the compute world
            t0 = env.now
            allp = yield from comm.allgather(partial)
            aggregated = (
                op.aggregate([p for p in allp if p is not None])
                if any(p is not None for p in allp)
                else None
            )
            timing.communicate += env.now - t0

            ctx = OperatorContext(
                rank=comm.rank,
                nworkers=comm.size,
                step=step.step,
                aggregated=aggregated,
                placement="compute",
                volume_scale=scale,
            )
            op.initialize(ctx)

            # map on own chunk
            t0 = env.now
            mflops = op.map_flops(step)
            if mflops > 0 and node is not None:
                yield from node.compute(mflops)
            items = list(op.map(ctx, step))
            items = op.combine(ctx, items)
            cflops = op.combine_flops(ctx, items)
            if cflops > 0 and node is not None:
                yield from node.compute(cflops)
            timing.compute += env.now - t0

            # shuffle across compute ranks
            t0 = env.now
            outbound: list[list[Emit]] = [[] for _ in range(comm.size)]
            for e in items:
                outbound[op.partition(ctx, e.tag) % comm.size].append(e)
            eff_scale = 1.0 + (scale - 1.0) * op.logical_fraction_shuffled()
            inbound_rows = yield from comm.alltoall(
                outbound, wire_scale=eff_scale
            )
            timing.communicate += env.now - t0

            # reduce
            t0 = env.now
            groups: dict[Hashable, list[Any]] = {}
            for row in inbound_rows:
                for e in row:
                    groups.setdefault(e.tag, []).append(e.value)
            reduced: dict[Hashable, Any] = {}
            for tag, values in groups.items():
                rflops = op.reduce_flops(ctx, tag, values)
                if rflops > 0 and node is not None:
                    yield from node.compute(rflops)
                rmem = op.reduce_membytes(ctx, tag, values)
                if rmem > 0 and node is not None:
                    yield env.timeout(node.memory_scan_time(rmem))
                out = op.reduce(ctx, tag, values)
                if out is not None:
                    reduced[tag] = out
            timing.compute += env.now - t0

            # finalize (file-system writes are visible here)
            t0 = env.now
            res = op.finalize(ctx, reduced)
            if inspect.isgenerator(res):
                res = yield from res
            timing.io += env.now - t0

            self.results[op.name].setdefault(step.step, {})[comm.rank] = res
            self.timings[op.name].setdefault(step.step, {})[comm.rank] = timing
        return env.now - start

    def step_timing(self, op_name: str, step: int) -> InComputeTiming:
        """Max-across-ranks view of one operator's step timing."""
        per_rank = self.timings[op_name][step]
        merged = InComputeTiming()
        merged.compute = max(t.compute for t in per_rank.values())
        merged.communicate = max(t.communicate for t in per_rank.values())
        merged.io = max(t.io for t in per_rank.values())
        return merged


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
