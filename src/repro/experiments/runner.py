"""Shared experiment plumbing: scale-faithful GTC / Pixie3D runs.

The central builders are :func:`run_gtc` and :func:`run_pixie3d`.
Both accept a *core count* on the paper's x-axis, derive the logical
process counts and staging-area sizing from the paper's ratios
(GTC: 1 process/node, 8 threads, staging 64:1 cores; Pixie3D:
1 process/core, staging 128:1), then execute the run with ``R``
representative ranks and return a structured result.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Any

from repro.adios.io import SyncMPIIO
from repro.apps.gtc import COL_LABEL, GTC_GROUP, GTCApplication, GTCConfig
from repro.apps.metrics import AppMetrics
from repro.apps.pixie3d import Pixie3DApplication, Pixie3DConfig, pixie3d_group
from repro.core.middleware import PreDatA
from repro.core.operator import PreDatAOperator, StepReport
from repro.core.placement import InComputeNodeRunner, InComputeTiming
from repro.machine.machine import Machine
from repro.machine.presets import JAGUAR_XT4, JAGUAR_XT5, MachineSpec
from repro.mpi.world import World
from repro.operators import (
    Histogram2DOperator,
    HistogramOperator,
    SampleSortOperator,
)
from repro.sim.engine import Engine

__all__ = [
    "GTCRunResult",
    "Pixie3DRunResult",
    "gtc_operators",
    "run_gtc",
    "run_pixie3d",
    "gtc_scales",
    "pixie3d_scales",
    "FAST_FIG7",
    "FAST_FIG8",
]

#: ``--fast`` presets, as :func:`run_gtc` keyword arguments: one dump
#: after a trimmed compute phase.  Fig. 8 keeps the paper's 27 s
#: iteration (a 108 s interval): its improvement metric is a fraction
#: of the dump interval, not of an arbitrary run.
FAST_FIG7 = dict(ndumps=1, iterations_per_dump=2, compute_seconds_per_iteration=10.0)
FAST_FIG8 = dict(ndumps=1, iterations_per_dump=4, compute_seconds_per_iteration=27.0)

#: pacing of the scheduled RDMA gets, bytes/s per staging process
GTC_FETCH_RATE_CAP = 0.2e9
PIXIE3D_FETCH_RATE_CAP = 0.1e9
#: fraction of each compute phase the PreDatA compute-node runtime steals
#: from a staged application (buffer management, the fetch progress
#: engine); in-compute runs lose nothing to it
GTC_STAGING_STEAL = 0.005
PIXIE3D_STAGING_STEAL = 0.008

#: Paper scales for the GTC experiments (compute cores).
def gtc_scales() -> list[int]:
    """The paper's GTC scales in compute cores (512..16,384)."""
    return [512, 1024, 2048, 4096, 8192, 16384]


#: Paper scales for the Pixie3D experiments (compute cores, XT4).
def pixie3d_scales() -> list[int]:
    """The paper's Pixie3D scales in compute cores (XT4)."""
    return [256, 512, 1024, 2048, 4096]


def gtc_operators(which: str, filesystem=None) -> list[PreDatAOperator]:
    """The three evaluated GTC operations (§V.B), by name.

    Each operation is applied to *both* particle arrays, as in the
    paper ("each of these operators is applied to both the electron
    and ion particle arrays").
    """
    species = ("electrons", "ions")
    if which == "sort":
        return [
            SampleSortOperator(var, COL_LABEL, name=f"sort:{var}")
            for var in species
        ]
    if which == "histogram":
        return [
            HistogramOperator(
                var, column=6, bins=1000, name=f"histogram:{var}",
                filesystem=filesystem,
            )
            for var in species
        ]
    if which == "histogram2d":
        return [
            Histogram2DOperator(
                var, columns=(0, 3), bins=(256, 256),
                name=f"histogram2d:{var}", filesystem=filesystem,
            )
            for var in species
        ]
    raise ValueError(f"unknown GTC operation {which!r}")


@dataclass
class GTCRunResult:
    """Everything measured from one GTC run."""

    cores: int
    placement: str  # "staging" | "incompute" | "none"
    metrics: AppMetrics
    cpu_seconds: float
    staging_reports: list[StepReport] = field(default_factory=list)
    in_compute_timings: dict[str, InComputeTiming] = field(default_factory=dict)
    nprocs_logical: int = 0
    rep_ranks: int = 0
    visible_write_seconds: float = 0.0
    interference_pct: float = 0.0  # main-loop slowdown vs baseline
    #: live facade of a staging run (operator results, client state) —
    #: the verification subsystem fingerprints/inspects it post-run
    predata: Any = field(default=None, repr=False)


def _scaled_fs(spec: MachineSpec, rep_factor: float):
    """File-system share of R representatives of a P-rank job.

    Aggregate bandwidth *and* OST count scale together so per-stream
    striping behaviour (per-OST bandwidth) stays faithful.
    """
    fs = spec.filesystem
    return replace(
        fs,
        aggregate_bandwidth=fs.aggregate_bandwidth / rep_factor,
        n_osts=max(fs.stripe_count, round(fs.n_osts / rep_factor)),
    )


def _gtc_sizing(cores: int, rep_ranks: int) -> tuple[int, int, int, int]:
    """(procs, staging_procs, R, R_s) for a GTC scale."""
    if cores % 8:
        raise ValueError("GTC cores must be a multiple of 8 (8 cores/node)")
    procs = cores // 8
    staging_procs = max(2, cores // 256)  # 64:1 cores; 2 procs x 4 threads/node
    r = min(procs, rep_ranks)
    r_s = max(2, round(staging_procs * r / procs)) if procs > r else staging_procs
    return procs, staging_procs, r, r_s


def run_gtc(
    cores: int,
    placement: str,
    operation: str = "sort",
    *,
    rep_ranks: int = 64,
    ndumps: int = 2,
    iterations_per_dump: int = 4,
    compute_seconds_per_iteration: float = 27.0,
    functional_rows: int = 128,
    operators_factory: Callable | None = None,
    tie_breaker: Any | None = None,
    schedule_trace: Any | None = None,
) -> GTCRunResult:
    """One GTC run at *cores* on the XT5 under the chosen operator *placement*.

    ``placement``: ``"staging"`` runs operators in the Staging Area via
    PreDatA (scheduled movement, fetches paced at
    :data:`GTC_FETCH_RATE_CAP`); ``"incompute"`` runs them
    synchronously on the compute ranks with synchronous MPI-IO;
    ``"none"`` is the operator-free baseline (used to isolate
    interference).

    ``tie_breaker``/``schedule_trace`` belong to the verification
    subsystem (:mod:`repro.check`): a seeded
    :class:`~repro.sim.SeededTieBreaker` perturbs same-time event
    order and a :class:`~repro.check.ScheduleTrace` records the
    executed schedule.  Both default off (byte-identical run).
    """
    if placement not in ("staging", "incompute", "none"):
        raise ValueError(f"bad placement {placement!r}")
    spec = JAGUAR_XT5
    procs, staging_logical, r, r_s = _gtc_sizing(cores, rep_ranks)
    rep_factor = procs / r
    spec_scaled = replace(spec, filesystem=_scaled_fs(spec, rep_factor))

    eng = Engine(tie_breaker=tie_breaker)
    if schedule_trace is not None:
        eng.schedule_trace = schedule_trace
    n_staging_nodes = max(1, (r_s + 1) // 2) if placement == "staging" else 0
    machine = Machine(eng, r, n_staging_nodes, spec=spec_scaled)
    cfg = GTCConfig(
        nprocs_logical=procs,
        functional_rows=functional_rows,
        iterations_per_dump=iterations_per_dump,
        ndumps=ndumps,
        compute_seconds_per_iteration=compute_seconds_per_iteration,
    )
    app_world = World(
        eng,
        machine.network,
        list(range(r)),
        name="gtc",
        node_lookup=machine.node,
        wire_scale=1.0,
        model_size=procs,
    )

    predata = None
    runner = None
    scheduler = None
    if placement == "staging":
        ops = (operators_factory or gtc_operators)(
            operation, machine.filesystem
        )
        predata = PreDatA(
            eng,
            machine,
            GTC_GROUP,
            ops,
            ncompute_procs=r,
            nsteps=ndumps,
            volume_scale=cfg.volume_scale,
            fetch_rate_cap=GTC_FETCH_RATE_CAP,
            model_size=staging_logical,
        )
        predata.start()
        transport = predata.transport
        scheduler = predata.scheduler
    else:
        transport = SyncMPIIO(machine.filesystem, collect_data=False)
        if placement == "incompute":
            ops = (operators_factory or gtc_operators)(
                operation, machine.filesystem
            )
            runner = InComputeNodeRunner(machine, ops)

    app = GTCApplication(
        machine, app_world, transport, cfg,
        scheduler=scheduler, runner=runner,
        staging_steal=GTC_STAGING_STEAL if placement == "staging" else 0.0,
    )
    app.spawn()
    eng.run()

    metrics = app.max_metrics()
    result = GTCRunResult(
        cores=cores,
        placement=placement,
        metrics=metrics,
        cpu_seconds=metrics.total * cores,
        nprocs_logical=procs,
        rep_ranks=r,
    )
    if placement == "staging":
        result.predata = predata
        result.staging_reports = [
            predata.service.step_report(s) for s in range(ndumps)
        ]
        result.visible_write_seconds = (
            max(app.metrics.values(), key=lambda m: m.io_blocking).io_blocking
            / ndumps
        )
        # staging adds its own cores to the CPU bill (1.5% extra)
        result.cpu_seconds = metrics.total * (cores + cores // 64)
    else:
        result.visible_write_seconds = metrics.io_blocking / ndumps
        if runner is not None:
            result.in_compute_timings = {
                op.name: runner.step_timing(op.name, 0) for op in runner.operators
            }
    return result


@dataclass
class Pixie3DRunResult:
    """Everything measured from one Pixie3D run."""

    cores: int
    placement: str
    metrics: AppMetrics
    cpu_seconds: float
    staging_reports: list[StepReport] = field(default_factory=list)
    nprocs_logical: int = 0
    rep_ranks: int = 0
    merged_file: object = None
    unmerged_file: object = None


def _pixie_sizing(cores: int, rep_ranks: int) -> tuple[int, int, int, int]:
    procs = cores  # 1 process per core on XT4
    staging_procs = max(1, cores // 256)  # 128:1 cores; 2 procs x 4 threads
    r = min(procs, rep_ranks)
    r_s = max(1, round(staging_procs * r / procs)) if procs > r else staging_procs
    return procs, staging_procs, r, r_s


def run_pixie3d(
    cores: int,
    placement: str,
    *,
    rep_ranks: int = 64,
    iterations_per_dump: int = 18,
    collective_rounds: int = 8,
    collect_files: bool = False,
    fs_interference: bool = True,
) -> Pixie3DRunResult:
    """One single-dump Pixie3D run at *cores* on the XT4 with layout
    reorg in *placement*.

    ``placement``: ``"staging"`` sends output through PreDatA where the
    array-merge operator reorganises it (scheduled movement, fetches
    paced at :data:`PIXIE3D_FETCH_RATE_CAP`); ``"incompute"`` writes
    unmerged BP directly with synchronous MPI-IO.
    """
    from repro.adios.bp import BPWriter
    from repro.operators import ArrayMergeOperator
    from repro.apps.pixie3d import PIXIE3D_VARS

    if placement not in ("staging", "incompute"):
        raise ValueError(f"bad placement {placement!r}")
    spec = JAGUAR_XT4
    procs, staging_logical, r, r_s = _pixie_sizing(cores, rep_ranks)
    rep_factor = procs / r
    spec_scaled = replace(spec, filesystem=_scaled_fs(spec, rep_factor))

    eng = Engine()
    nodes_needed_for_ranks = max(1, r // spec.node.cores)
    n_staging_nodes = max(1, (r_s + 1) // 2) if placement == "staging" else 0
    machine = Machine(
        eng,
        max(nodes_needed_for_ranks, 1),
        n_staging_nodes,
        spec=spec_scaled,
        fs_interference=fs_interference,
    )
    cfg = Pixie3DConfig(
        nprocs_logical=procs,
        functional_size=6,
        iterations_per_dump=iterations_per_dump,
        ndumps=1,
        collective_rounds_per_iteration=collective_rounds,
    )
    # several ranks share a node (1 proc/core)
    rank_nodes = [i % machine.n_compute_nodes for i in range(r)]
    app_world = World(
        eng,
        machine.network,
        rank_nodes,
        name="pixie3d",
        node_lookup=machine.node,
        model_size=procs,
    )
    group = pixie3d_group()

    predata = None
    writer = None
    transport = None
    scheduler = None
    if placement == "staging":
        writer = BPWriter("pixie3d_merged.bp", group) if collect_files else None
        op = ArrayMergeOperator(
            list(PIXIE3D_VARS),
            out_group=group,
            filesystem=machine.filesystem,
            writer=writer,
        )
        predata = PreDatA(
            eng,
            machine,
            group,
            [op],
            ncompute_procs=r,
            volume_scale=cfg.volume_scale,
            fetch_rate_cap=PIXIE3D_FETCH_RATE_CAP,
            model_size=staging_logical,
            procs_per_staging_node=max(1, min(2, r_s)),
        )
        predata.start()
        transport = predata.transport
        scheduler = predata.scheduler
    else:
        transport = SyncMPIIO(machine.filesystem, collect_data=collect_files)

    app = Pixie3DApplication(
        machine, app_world, transport, cfg, scheduler=scheduler,
        staging_steal=PIXIE3D_STAGING_STEAL if placement == "staging" else 0.0,
    )
    app.spawn()
    eng.run()

    metrics = app.max_metrics()
    result = Pixie3DRunResult(
        cores=cores,
        placement=placement,
        metrics=metrics,
        cpu_seconds=metrics.total * cores,
        nprocs_logical=procs,
        rep_ranks=r,
    )
    if placement == "staging":
        result.staging_reports = [predata.service.step_report(0)]
        result.cpu_seconds = metrics.total * (cores + max(1, cores // 128))
        if collect_files and writer is not None:
            result.merged_file = writer.close()
    else:
        if collect_files:
            transport.finalize()
            result.unmerged_file = transport.file(group.name)
    return result
