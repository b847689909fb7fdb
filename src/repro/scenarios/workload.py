"""The chaos workload every scenario runs against.

A Pixie3D-like application dumps 3-D field steps through the Staging
configuration with the layout-reorganisation operator, at 512–2048
*logical* ranks (representative-rank methodology, see DESIGN.md).  The
run itself injects nothing: every fault comes from the
:class:`~repro.scenarios.harness.ScenarioHarness` passed in, so the
``staging-crash`` scenario — one staging node killed at :data:`CRASH_T`,
in the middle of step 1 — is the resilience subsystem's acceptance run.
A run must then demonstrate the protocol's guarantees:

- the surviving staging processes detect the death via heartbeats,
  adopt the dead node's compute clients and re-execute the interrupted
  step from the commit point (recovery latency);
- the run completes and **every** dump step is readable back from the
  merged BP file (or the synchronous fallback file under degradation)
  bit-for-bit — zero data loss;
- the whole run is reproducible event-for-event under a fixed harness
  seed (the :func:`fingerprint` of two same-seed runs is identical).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.adios.bp import BPError, BPFile, BPWriter
from repro.adios.group import ChunkMeta, OutputStep
from repro.adios.io import SyncMPIIO
from repro.apps.groups import FIELD_GROUP
from repro.core import PreDatA
from repro.faults import ResilienceConfig
from repro.ffs import SchemaError
from repro.flow import FlowConfig
from repro.machine import TESTING_TINY, Machine
from repro.mpi import World
from repro.operators.array_merge import ArrayMergeOperator
from repro.sim import Engine

__all__ = ["CRASH_T", "ChaosRun", "fingerprint", "run_once"]

#: simulated seconds between this workload's dumps (its own, not
#: :mod:`repro.check.workloads`'), and when ``staging-crash`` kills a
#: staging node: 0.2 s into step 1
DUMP_INTERVAL = 2.0
CRASH_T = DUMP_INTERVAL + 0.2
#: field-slab edge per simulated rank, and the logical dump volume each
#: logical rank carries (MB)
LOCAL_N = 8
PER_LOGICAL_RANK_MB = 0.5


def _expected_field(nprocs: int, local_n: int, step: int) -> np.ndarray:
    """The deterministic global array every reader must recover."""
    gx = nprocs * local_n
    cells = np.arange(gx * local_n * local_n, dtype=float)
    return (cells + 1000.0 * step).reshape(gx, local_n, local_n)


def _field_step(
    rank: int, nprocs: int, local_n: int, step: int, scale: float
) -> OutputStep:
    """One rank's 1-D slab of the global field (Pixie3D decomposition)."""
    gx = nprocs * local_n
    lo = rank * local_n
    base = _expected_field(nprocs, local_n, step)
    return OutputStep(
        group=FIELD_GROUP,
        step=step,
        rank=rank,
        values={"rho": base[lo : lo + local_n]},
        chunks={"rho": ChunkMeta((gx, local_n, local_n), (lo, 0, 0))},
        volume_scale=scale,
    )


@dataclass
class ChaosRun:
    """Everything one chaos-workload run produced (handles + metrics)."""

    logical_ranks: int
    rep_ranks: int
    nsteps: int
    #: the staging node whose crash fired first, -1 when none did
    killed_node: int
    wall_seconds: float
    complete: bool
    missing_steps: list[int]
    detection_seconds: float | None
    recovery_seconds: float | None
    restarts: int
    fetch_retries: int
    degraded_steps: int
    merged: BPFile
    fallback_file: BPFile | None
    engine: Engine = field(repr=False, default=None)
    predata: PreDatA = field(repr=False, default=None)
    #: the harness's injector (None without a harness or fault)
    injector: object = field(repr=False, default=None)
    # -- flow-control counters (all zero when flow is disabled) -----------
    flow_spill_bytes: float = 0.0
    flow_unspill_bytes: float = 0.0
    flow_mean_sojourn: float = 0.0
    flow_overflow_steps: int = 0


def run_once(
    *,
    logical_ranks: int = 512,
    rep_ranks: int = 8,
    nsteps: int = 4,
    nstaging_nodes: int = 2,
    resilience: ResilienceConfig | None = None,
    obs=None,
    flow_fraction: float | None = None,
    fetch_pipeline_depth: int = 2,
    schedule_trace=None,
    check=None,
    stream_bridge=None,
    scenario_harness=None,
    topology=None,
) -> ChaosRun:
    """One complete chaos-workload run; returns metrics + readable files.

    The ``rep_ranks`` simulated processes stand for ``logical_ranks``
    logical ones: each carries its share of the logical dump volume
    (:data:`PER_LOGICAL_RANK_MB` per logical rank) as wire/memory
    inflation, so fetch and shuffle take realistic simulated time and
    a crash at :data:`CRASH_T` genuinely lands inside an in-flight step
    (dumps are :data:`DUMP_INTERVAL` apart).

    ``scenario_harness`` (a :class:`repro.scenarios.ScenarioHarness`)
    is attached before the application starts and is the run's only
    source of faults; without one the run is the interference baseline.
    A harness whose every scenario has zero intensity attaches nothing
    and leaves the run byte-identical.  ``topology`` is forwarded to
    :class:`~repro.machine.Machine` (regional scenarios pass a
    ``RegionalTopology`` factory).  ``obs`` binds an
    :class:`repro.obs.Observability` sink to the run's engine so the
    crash/detection/recovery protocol shows up as trace instants.

    ``flow_fraction=f`` enables the flow-control subsystem with each
    staging node's buffer pool capped at ``f`` times its per-step
    working set.  ``fetch_pipeline_depth`` is
    forwarded to the staging service (deeper pipelines buffer more
    chunks concurrently, exercising spill under a capped pool).

    ``schedule_trace``/``check`` are the verification subsystem's
    engine hooks (see :mod:`repro.check`); both default off and leave
    the run byte-identical.

    ``stream_bridge`` attaches a :class:`repro.stream.StreamBridge` to
    the staging service's commit hook — a pure synchronous recorder,
    so the run stays byte-identical (fingerprint *and* schedule hash)
    with streaming enabled; the recorded steps are replayed into a
    live stream as a separate post-pass.
    """
    eng = Engine()
    if schedule_trace is not None:
        eng.schedule_trace = schedule_trace
    if check is not None:
        check.bind(eng)
    if obs is not None:
        kind = "baseline" if scenario_harness is None else "fault"
        obs.bind(eng, label=f"chaos:{logical_ranks}:{kind}")
    machine = Machine(
        eng, rep_ranks, nstaging_nodes, spec=TESTING_TINY,
        fs_interference=False, topology=topology,
    )
    real_bytes = LOCAL_N**3 * 8
    scale = max(
        1.0,
        logical_ranks * PER_LOGICAL_RANK_MB * 1e6 / (rep_ranks * real_bytes),
    )
    writer = BPWriter("merged.bp", FIELD_GROUP)
    op = ArrayMergeOperator(["rho"], out_group=FIELD_GROUP, writer=writer)
    fallback = SyncMPIIO(machine.filesystem)
    flow_cfg = None
    if flow_fraction is not None:
        # one step's logical bytes landing on each staging node
        working_set = rep_ranks * real_bytes * scale / nstaging_nodes
        flow_cfg = FlowConfig(pool_bytes=flow_fraction * working_set)
    predata = PreDatA(
        eng,
        machine,
        FIELD_GROUP,
        [op],
        ncompute_procs=rep_ranks,
        nsteps=nsteps,
        volume_scale=scale,
        fetch_pipeline_depth=fetch_pipeline_depth,
        resilience=resilience or ResilienceConfig(),
        fallback_io=fallback,
        flow=flow_cfg,
    )
    if stream_bridge is not None:
        stream_bridge.attach(predata.service)
    injector = None
    if scenario_harness is not None:
        scenario_harness.attach(eng, machine, predata, nsteps=nsteps)
        injector = scenario_harness.injector

    app = World(
        eng,
        machine.network,
        list(range(rep_ranks)),
        name="app",
        node_lookup=machine.node,
        wire_scale=scale,
        model_size=logical_ranks,
    )
    predata.start()

    def app_main(comm):
        for s in range(nsteps):
            step = _field_step(comm.rank, rep_ranks, LOCAL_N, s, scale)
            yield from predata.transport.write_step(comm, step)
            yield from comm.sleep(DUMP_INTERVAL)

    app.spawn(app_main)
    eng.run()
    wall = eng.now

    fallback.finalize()
    merged = writer.close()
    try:
        fallback_file: BPFile | None = fallback.file(FIELD_GROUP.name)
    except KeyError:
        fallback_file = None

    # -- completeness: every step readable back, bit-for-bit --------------
    missing: list[int] = []
    for s in range(nsteps):
        expected = _expected_field(rep_ranks, LOCAL_N, s)
        if not _step_recovered(merged, fallback_file, s, expected):
            missing.append(s)

    # the first node crash that actually fired, whichever scenario set it
    fired = injector.injected if injector else ()
    crash = next(((t, node) for k, t, node in fired if k == "crash"), None)
    controller = predata.controller
    detection = controller.detection_latency() if controller else None
    # Recovery latency: crash -> commit of the step the survivors had to
    # re-execute (the restart step recorded in the recovery timeline).
    recovery = None
    if crash is not None and controller is not None:
        restart_step = next(
            (d["step"] for k, _t, d in controller.timeline if k == "recovery"),
            None,
        )
        commit = predata.service.commit_times.get(restart_step)
        if commit is not None and commit > crash[0]:
            recovery = commit - crash[0]
    fc = predata.flow
    return ChaosRun(
        logical_ranks=logical_ranks,
        rep_ranks=rep_ranks,
        nsteps=nsteps,
        killed_node=-1 if crash is None else crash[1],
        wall_seconds=wall,
        complete=not missing,
        missing_steps=missing,
        detection_seconds=detection,
        recovery_seconds=recovery,
        restarts=predata.service.restarts,
        fetch_retries=predata.service.fetch_retries,
        degraded_steps=predata.transport.degraded_steps,
        merged=merged,
        fallback_file=fallback_file,
        engine=eng,
        predata=predata,
        injector=injector,
        flow_spill_bytes=fc.spill_bytes() if fc else 0.0,
        flow_unspill_bytes=fc.unspill_bytes() if fc else 0.0,
        flow_mean_sojourn=fc.mean_sojourn() if fc else 0.0,
        flow_overflow_steps=predata.transport.overflow_steps,
    )


def _step_recovered(
    merged: BPFile,
    fallback_file: BPFile | None,
    step: int,
    expected: np.ndarray,
) -> bool:
    """Whether *step*'s global array reads back exactly from any file.

    A file that lacks the step (or holds it only partly) raises
    :class:`BPError`, one whose record does not decode raises
    :class:`SchemaError`; any other error is a bug and propagates.
    """
    for f in (merged, fallback_file):
        if f is None:
            continue
        try:
            got = f.read_global_array("rho", step)
        except (BPError, SchemaError):
            continue
        if np.array_equal(got, expected):
            return True
    return False


def fingerprint(run: ChaosRun) -> str:
    """Digest of everything observable about a run (determinism guard).

    Covers the injected-fault log, the recovery timeline, per-step
    commit times, the final wall clock, and the full content of every
    process-group record written — two runs with the same seed must
    produce the same digest, event-for-event and bit-for-bit.
    """
    h = hashlib.sha256()
    for kind, t, detail in run.injector.injected if run.injector else ():
        h.update(f"inj|{kind}|{t:.9f}|{detail!r};".encode())
    controller = run.predata.controller
    if controller is not None:
        for kind, t, detail in controller.timeline:
            h.update(f"tl|{kind}|{t:.9f}|{detail!r};".encode())
    for s in sorted(run.predata.service.commit_times):
        h.update(f"commit|{s}|{run.predata.service.commit_times[s]:.9f};".encode())
    h.update(f"wall|{run.wall_seconds:.9f};".encode())
    if run.predata.flow is not None:
        # Flow-control schedule digest — only mixed in when flow is
        # enabled so pre-flow fingerprints stay exactly comparable.
        fc = run.predata.flow
        for nid in sorted(fc.pools):
            p = fc.pools[nid]
            h.update(
                f"pool|{nid}|{p.spills}|{p.unspills}|{p.waits}|"
                f"{p.spill_bytes:.3f}|{p.peak_bytes:.3f}|"
                f"{p.wait_seconds:.9f};".encode()
            )
        for rank in sorted(fc.banks):
            b = fc.banks[rank]
            h.update(
                f"bank|{rank}|{b.grants}|{b.rejections}|{b.forced}|"
                f"{b.total_sojourn:.9f};".encode()
            )
    for f in (run.merged, run.fallback_file):
        if f is None:
            continue
        for pg in f.pgs:
            h.update(f"pg|{f.name}|{pg.rank}|{pg.step}|".encode())
            h.update(pg.payload)
    return h.hexdigest()
