"""Self-contained seeded workloads for verification runs.

The fuzzer, the differential oracles and the ``repro check`` CLI all
need small end-to-end Staging-configuration pipelines that (a) live in
the library rather than the test tree, (b) are fully seeded, and
(c) keep every rank's input as the oracles' reference: compute-side
operators (filter/subsample/precision-reduce) *rebind* their
:class:`~repro.adios.OutputStep`'s variables, they never write into the
arrays, so the reference is the input array itself and the write path
gets a read-only view of it — an operator that did write in place
raises instead of silently corrupting the reference.

:func:`run_workload` runs one such pipeline and returns a
:class:`WorkloadRun` carrying the engine, the facade, the captured
inputs and the per-rank application-visible output times.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from repro.adios import ChunkMeta, OutputStep
from repro.apps.groups import FIELD_GROUP, PARTICLE_GROUP
from repro.core import PreDatA
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World
from repro.sim import Engine

__all__ = [
    "WorkloadRun",
    "make_operators",
    "run_workload",
    "OPERATOR_KINDS",
]

#: every built-in operator the differential oracles cover
OPERATOR_KINDS = (
    "minmax",
    "histogram",
    "histogram2d",
    "sort",
    "bitmap",
    "array_merge",
    "filter",
    "subsample",
    "precision_reduce",
)

#: operator kinds that consume the field (global-array) workload
FIELD_KINDS = frozenset({"array_merge"})

#: the synthetic inputs of :func:`run_workload`: particle rows per rank,
#: field-slab edge per rank, logical volume scale, seconds between dumps
ROWS = 40
LOCAL_N = 4
SCALE = 10.0
IO_INTERVAL = 2.0


def particle_step(rank, nprocs, rows, step=0, scale=1.0, seed=0):
    """Synthetic out-of-order GTC particles for one rank."""
    rng = np.random.default_rng(seed + 1000 * step + rank)
    data = np.empty((rows, 8))
    data[:, 0] = rng.permutation(nprocs * rows)[:rows]
    data[:, 1:4] = rng.uniform(-1, 1, size=(rows, 3))
    data[:, 4:7] = rng.normal(0, 1, size=(rows, 3))
    data[:, 7] = rng.uniform(0, 1, rows)
    return OutputStep(
        group=PARTICLE_GROUP,
        step=step,
        rank=rank,
        values={"electrons": data},
        volume_scale=scale,
    )


def field_step(rank, nprocs, local_n, step=0, scale=1.0, seed=0):
    """Seeded 3-D field chunk for one rank (1-D slab decomposition)."""
    gx = nprocs * local_n
    lo = rank * local_n
    rng = np.random.default_rng(seed + 7000 * step)
    base = rng.normal(0.0, 1.0, size=(gx, local_n, local_n))
    return OutputStep(
        group=FIELD_GROUP,
        step=step,
        rank=rank,
        values={"rho": base[lo : lo + local_n].copy()},
        chunks={"rho": ChunkMeta((gx, local_n, local_n), (lo, 0, 0))},
        volume_scale=scale,
    )


def make_operators(kind: str) -> list:
    """One built-in operator instance for *kind* (a fresh object)."""
    from repro.operators import (
        ArrayMergeOperator,
        BitmapIndexOperator,
        FilterOperator,
        HistogramOperator,
        MinMaxOperator,
        PrecisionReduceOperator,
        SampleSortOperator,
        SubsampleOperator,
    )

    if kind == "minmax":
        return [MinMaxOperator("electrons")]
    if kind == "histogram":
        return [HistogramOperator("electrons", (1,), (16,))]
    if kind == "histogram2d":
        return [HistogramOperator("electrons", (1, 2), (8, 8))]
    if kind == "sort":
        return [SampleSortOperator("electrons", key_column=0, samples_per_rank=8)]
    if kind == "bitmap":
        return [BitmapIndexOperator("electrons", column=2, bins=16)]
    if kind == "array_merge":
        return [ArrayMergeOperator(["rho"])]
    if kind == "filter":
        return [FilterOperator("electrons", column=1, lo=-0.5, hi=0.5)]
    if kind == "subsample":
        return [SubsampleOperator("electrons", fraction=0.25)]
    if kind == "precision_reduce":
        return [PrecisionReduceOperator(["electrons"])]
    raise ValueError(f"unknown operator kind {kind!r}")


def _read_only(value):
    """A view of an array *value* that refuses writes (scalars pass through)."""
    if not isinstance(value, np.ndarray):
        return value
    view = value.view()
    view.flags.writeable = False
    return view


@dataclass
class WorkloadRun:
    """One finished verification workload."""

    kind: str
    seed: int
    engine: Engine
    machine: Machine
    predata: PreDatA
    operators: list
    #: per-(rank, step) input values, by reference (the write path saw
    #: read-only views of the arrays)
    inputs: dict = field(repr=False, default_factory=dict)
    #: chunk metadata per (rank, step) for global-array workloads
    chunks: dict = field(repr=False, default_factory=dict)
    #: per-rank application-visible output seconds
    visible: dict = field(default_factory=dict)
    nprocs: int = 0

    def results(self) -> dict:
        """``{step: {rank: finalize output}}`` of the workload's operator."""
        return self.predata.service.results[self.operators[0].name]


def run_workload(
    kind: str = "sort",
    *,
    seed: int = 0,
    nprocs: int = 8,
    nsteps: int = 1,
    nstaging_nodes: int = 1,
    make_step: Optional[Callable] = None,
    tie_breaker=None,
    schedule_trace=None,
    check=None,
    flow=None,
) -> WorkloadRun:
    """Run one seeded end-to-end Staging pipeline to completion.

    ``make_step(rank, step)`` replaces the seeded synthetic inputs
    (:data:`ROWS` particle rows or a :data:`LOCAL_N`-cube field slab
    per rank, at logical volume :data:`SCALE`).
    ``tie_breaker``/``schedule_trace``/``check`` thread straight to the
    engine (all default off, keeping the run byte-identical with the
    plain pipeline); ``flow`` is the usual facade config.  The error of
    an application rank that failed is re-raised once the run drains.
    """
    ops = make_operators(kind)
    eng = Engine(tie_breaker=tie_breaker)
    if schedule_trace is not None:
        eng.schedule_trace = schedule_trace
    if check is not None:
        check.bind(eng)
    machine = Machine(eng, nprocs, nstaging_nodes, spec=TESTING_TINY)
    app_world = World(
        eng,
        machine.network,
        list(range(nprocs)),
        name="app",
        node_lookup=machine.node,
        wire_scale=SCALE,
    )
    group = FIELD_GROUP if kind in FIELD_KINDS else PARTICLE_GROUP
    predata = PreDatA(
        eng,
        machine,
        group,
        ops,
        ncompute_procs=nprocs,
        nsteps=nsteps,
        volume_scale=SCALE,
        flow=flow,
    )
    predata.start()

    if make_step is None:
        if kind in FIELD_KINDS:
            make_step = lambda rank, s: field_step(  # noqa: E731
                rank, nprocs, LOCAL_N, step=s, scale=SCALE, seed=seed
            )
        else:
            make_step = lambda rank, s: particle_step(  # noqa: E731
                rank, nprocs, ROWS, step=s, scale=SCALE, seed=seed
            )

    run = WorkloadRun(
        kind=kind,
        seed=seed,
        engine=eng,
        machine=machine,
        predata=predata,
        operators=ops,
        nprocs=nprocs,
    )

    def app_main(comm):
        total = 0.0
        for s in range(nsteps):
            step = make_step(comm.rank, s)
            run.inputs[(comm.rank, s)] = step.values
            step = replace(
                step, values={var: _read_only(v) for var, v in step.values.items()}
            )
            if step.chunks:
                run.chunks[(comm.rank, s)] = dict(step.chunks)
            t = yield from predata.transport.write_step(comm, step)
            total += t
            yield from comm.sleep(IO_INTERVAL)
        run.visible[comm.rank] = total

    ranks = app_world.spawn(app_main)
    eng.run()
    if len(run.visible) < nprocs:  # a rank never finished: surface its error
        for proc in ranks:
            if proc.triggered and not proc.ok:
                raise proc.value  # e.g. an operator wrote into its read-only input
    return run
