"""The Staging Area service (§IV.C, Fig. 5).

Each staging process runs :meth:`StagingService._service_main` — the
per-step pipeline:

1. **gather requests** from the compute processes it serves;
2. **aggregate** (stage 2): partial results attached to the requests
   are allgathered across the staging world and fed to each operator's
   ``aggregate()`` — producing global sizes, min/max, sort splitters —
   before any bulk data moves;
3. **Initialize** each operator with the aggregated results;
4. **fetch + Map**: packed partial data chunks are pulled from compute
   nodes with scheduled RDMA gets and processed *one by one in a
   streaming manner* — a prefetch pipeline overlaps the next fetch with
   the current Map, and chunk buffers are freed immediately after Map
   so staging memory stays bounded;
5. **Shuffle**: ``Combine()`` locally, then ``Partition()`` routes
   intermediate results to their reducer rank via the staging world's
   MPI ``alltoallv`` (the paper's deliberate choice of MPI over a
   MapReduce master, §IV.C);
6. **Reduce** groups by tag and folds;
7. **Finalize** persists results (may perform simulated file-system
   I/O when the operator's finalize is a generator).

Stages 5–7 are :func:`~repro.core.operator.combine_to_finalize`, the
same body the In-Compute-Node placement runs.

Timing of every phase is recorded in a :class:`StepReport` per staging
rank; the service exposes per-step maxima, which is what the paper's
Fig. 7 plots as operation time in the Staging configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.adios.group import GroupDef, OutputStep
from repro.core.client import FetchRequest, StagingClient
from repro.core.operator import (
    Emit, OperatorContext, PreDatAOperator, StepReport, charge, combine_to_finalize, worst_rank,
)
from repro.faults.config import ResilienceConfig
from repro.faults.errors import FetchDropped, FetchTimeout, RecoveryRestart
from repro.machine.machine import Machine
from repro.machine.node import NodeFailure
from repro.mpi.communicator import Communicator
from repro.mpi.world import World
from repro.sim.engine import Engine, Interrupt
from repro.sim.resources import Resource, Store

__all__ = ["StagingConfig", "StagingService", "DrainTimeout", "THREADS_PER_PROCESS"]

#: worker threads per staging process (§V.B: 2 processes x 4 threads
#: per staging node); Map and Reduce compute is divided among them
THREADS_PER_PROCESS = 4


class DrainTimeout(RuntimeError):
    """``drain()`` gave up waiting; names the steps still outstanding."""


@dataclass(frozen=True)
class StagingConfig:
    """Staging-area runtime knobs (§V.B: 2 procs/node).

    ``chunk_order`` customises the stream order (§IV.C: "Users can
    also ... place the data chunks present within the data stream into
    some desired order to ease implementing such data analysis
    services"): a callable receiving the step's fetch requests (each
    carrying the attached partial results) in compute-rank order and
    returning them in the order the pipeline should fetch and Map them.
    Default: compute-rank order.
    """

    fetch_pipeline_depth: int = 2
    nsteps: int = 1
    chunk_order: Optional[Any] = None
    #: failure handling knobs; None disables the recovery protocol and
    #: preserves the exact pre-resilience pipeline behaviour.
    resilience: Optional[ResilienceConfig] = None

    def __post_init__(self) -> None:
        if self.fetch_pipeline_depth < 1:
            raise ValueError("pipeline depth must be >= 1")
        if self.nsteps < 1:
            raise ValueError("nsteps must be >= 1")
        if self.chunk_order is not None and not callable(self.chunk_order):
            raise ValueError("chunk_order must be callable")


class StagingService:
    """The staging-area MPI program."""

    def __init__(
        self,
        env: Engine,
        machine: Machine,
        world: World,
        client: StagingClient,
        group: GroupDef,
        operators: list[PreDatAOperator],
        config: Optional[StagingConfig] = None,
    ):
        self.env = env
        self.machine = machine
        self.world = world
        self.client = client
        self.group = group
        self.operators = list(operators)
        names = [op.name for op in self.operators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate operator names: {names}")
        self.config = config or StagingConfig()
        #: per step -> per staging rank -> StepReport
        self.rank_reports: dict[int, dict[int, StepReport]] = {}
        #: operator name -> step -> rank -> finalize() return value
        self.results: dict[str, dict[int, dict[int, Any]]] = {
            op.name: {} for op in self.operators
        }
        self._procs: list = []
        #: callbacks fired as each staging rank finishes a step
        self._step_listeners: list = []
        #: callbacks fired as each staging rank *commits* a step
        self._commit_listeners: list = []
        # -- resilience state ------------------------------------------
        #: next uncommitted step per staging rank (recovery restart point)
        self._rank_step: dict[int, int] = {}
        #: per-rank in-flight step scratch needing cleanup on abort
        self._inflight: dict[int, dict] = {}
        #: sim time each step's commit barrier completed
        self.commit_times: dict[int, float] = {}
        #: count of step re-executions forced by recovery
        self.restarts = 0
        #: count of fetch attempts beyond the first (timeouts/drops)
        self.fetch_retries = 0

    def add_step_listener(self, callback) -> None:
        """Register ``callback(step, rank)`` fired per rank completion
        (the hook online monitors subscribe to)."""
        self._step_listeners.append(callback)

    def add_commit_listener(self, callback) -> None:
        """Register ``callback(step, rank)`` fired as each rank commits
        a step — after the commit barrier under resilience, at step
        completion otherwise.  Callbacks run synchronously and must not
        touch the engine (the step-stream bridge relies on this to keep
        schedule traces byte-identical)."""
        self._commit_listeners.append(callback)

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Spawn the service loop on every staging rank."""
        self._procs = self.world.spawn(self._service_main)

    def drain(self, timeout: Optional[float] = None):
        """Process body: wait until every staging rank finished all steps.

        ``timeout`` (simulated seconds) bounds the wait; on expiry a
        :class:`DrainTimeout` is raised describing exactly which steps
        and staging ranks never completed, instead of blocking the
        caller forever on a wedged pipeline.
        """
        if not self._procs:
            raise RuntimeError("drain() before start()")
        done = self.env.all_of(self._procs)
        if timeout is None:
            yield done
            return
        deadline = self.env.timeout(timeout)
        yield self.env.any_of([done, deadline])
        if not done.triggered:
            raise DrainTimeout(self._undrained_message(timeout))

    def _undrained_message(self, timeout: float) -> str:
        expected = self.world.active_ranks
        lines = []
        for step in range(self.config.nsteps):
            per_rank = self.rank_reports.get(step, {})
            missing = [r for r in expected if r not in per_rank]
            if missing:
                lines.append(f"step {step}: waiting on staging ranks {missing}")
        detail = "; ".join(lines) if lines else "no step reports missing"
        # Queue depth + in-flight bytes per stuck rank: the difference
        # between 'requests never arrived' and 'wedged mid-fetch under
        # backpressure' is exactly what a drain post-mortem needs.
        states = []
        for rank in expected:
            box = self.client._request_boxes.get(rank)
            queued_n = box.pending if box is not None else 0
            queued_b = (
                sum(
                    req.logical_nbytes
                    for _src, _tag, req in box._messages
                    if req is not None
                )
                if box is not None
                else 0.0
            )
            inflight = self._inflight.get(rank) or {}
            inflight_b = inflight.get("alloc", 0.0)
            inflight_b += sum(
                t.nbytes
                for t in inflight.get("tickets", ())
                if t.state != "spilled"
            )
            if queued_n or inflight_b > 0:
                states.append(
                    f"rank {rank}: {queued_n} queued request(s) "
                    f"[{queued_b:.3g} B], {inflight_b:.3g} B in flight"
                )
        msg = (
            f"staging drain timed out after {timeout:g} simulated seconds "
            f"({detail})"
        )
        if states:
            msg += "; " + "; ".join(states)
        obs = self.env.obs
        if obs is not None:
            fetched = sum(v for _l, v in obs.metrics.labelled("bytes_fetched"))
            retries = sum(v for _l, v in obs.metrics.labelled("fetch_retries"))
            msg += f"; obs: {fetched:.3g} B fetched, {retries:.0f} fetch retries"
        if self.client.flow is not None:
            msg += "; flow: " + self.client.flow.describe_pressure()
        return msg

    # -- aggregated views -----------------------------------------------------
    def step_report(self, step: int) -> StepReport:
        """Cross-rank maximum view of one step (what Fig. 7 plots)."""
        per_rank = self.rank_reports.get(step)
        if not per_rank:
            raise KeyError(f"no reports for step {step}")
        return worst_rank(
            per_rank.values(),
            least=("t_dump_start",),
            summed=("bytes_fetched", "bytes_shuffled"),
        )

    def result(self, op_name: str, step: int = 0, rank: int = 0) -> Any:
        """One operator's finalize() result for (step, staging rank)."""
        return self.results[op_name][step][rank]

    # -- the service loop ---------------------------------------------------------
    def _service_main(self, comm: Communicator):
        if self.config.resilience is None:
            for step in range(self.config.nsteps):
                yield from self._run_step(comm, step)
            return
        # Resilient loop: a step may be aborted by the recovery
        # controller (RecoveryRestart) and re-executed, or the whole
        # rank torn down when its own node crashes (NodeFailure).
        step = 0
        while step < self.config.nsteps:
            self._rank_step[comm.rank] = step
            try:
                yield from self._run_step(comm, step)
            except Interrupt as exc:
                cause = exc.cause
                self._abort_cleanup(comm)
                if isinstance(cause, NodeFailure):
                    return  # this rank's node died; exit quietly
                if isinstance(cause, RecoveryRestart):
                    self.restarts += 1
                    if self.env.obs is not None:
                        self.env.obs.metrics.inc("step_restarts", stage=comm.rank)
                    if self.env.check is not None:
                        self.env.check.on_restart(comm.rank, cause.restart_step)
                    step = cause.restart_step
                    continue
                raise
            except FetchTimeout:
                self._abort_cleanup(comm)
                raise
            else:
                step = self._rank_step[comm.rank]

    def _abort_cleanup(self, comm: Communicator) -> None:
        """Undo a partially executed step after an abort interrupt."""
        inflight = self._inflight.pop(comm.rank, None)
        if not inflight:
            return
        fproc = inflight.get("fetcher")
        if fproc is not None and fproc.is_alive:
            fproc.interrupt("step aborted")
        node = inflight.get("node")
        alloc = inflight.get("alloc", 0.0)
        if node is not None and alloc > 0:
            node.free(alloc)
        pool = inflight.get("pool")
        if pool is not None:
            for ticket in inflight.get("tickets", ()):
                pool.discard(ticket)

    def _run_step(self, comm: Communicator, step: int):
        env = self.env
        obs = env.obs
        tid = f"stage{comm.rank}"
        node = comm.node
        threads = THREADS_PER_PROCESS
        resilience = self.config.resilience
        report = StepReport(step=step)
        my_computes = self.client.compute_ranks_of(comm.rank)
        flow = self.client.flow
        pool = (
            flow.pool_for(comm.node_id)
            if flow is not None and node is not None
            else None
        )
        inflight: dict = {
            "node": node,
            "alloc": 0.0,
            "fetcher": None,
            "pool": pool,
            "tickets": [],
        }
        if resilience is not None:
            self._inflight[comm.rank] = inflight

        # -- 1. gather data-fetch requests --------------------------------
        # (timed from the first request's arrival: the wait for the
        # application to reach its dump is idle time, not pipeline cost)
        box = self.client.request_box(comm.rank)
        received: dict[int, Optional[FetchRequest]] = {}
        t_first = None
        # Keyed by source so a redelivered duplicate cannot skew the
        # count; the receive is withdrawn cleanly if we are aborted.
        expected = set(my_computes)
        while not expected <= received.keys():
            ev = box.receive(tag=step)
            try:
                src, _tag, req = yield ev
            except BaseException:
                box.cancel(ev)
                raise
            if t_first is None:
                t_first = env.now
            received[src] = req
        # in source (= compute rank) order; None = skip notice (adaptive placement)
        requests = [received[r] for r in sorted(received) if received[r] is not None]
        if self.config.chunk_order is not None:
            requests = list(self.config.chunk_order(requests))
        report.gather_requests = env.now - t_first if t_first is not None else 0.0
        report.t_dump_start = (
            min(r.t_dump_start for r in requests) if requests else env.now
        )
        if obs is not None and t_first is not None:
            obs.span(
                "gather_requests", "pipeline", t_first, tid=tid,
                step=step, nrequests=len(requests),
            )

        # -- 2. aggregate partial results ----------------------------------
        t0 = env.now
        local = {
            op.name: [
                r.partials[op.name] for r in requests if op.name in r.partials
            ]
            for op in self.operators
        }
        # partial results are fixed-size summaries (samples, min/max,
        # geometry): no logical-volume inflation applies
        gathered = yield from comm.allgather(
            {"n": len(requests), "partials": local}, wire_scale=1.0
        )
        aggregated: dict[str, Any] = {}
        for op in self.operators:
            flat = [
                p for d in gathered for p in d["partials"].get(op.name, [])
            ]
            aggregated[op.name] = op.aggregate(flat) if flat else None
        report.aggregate = env.now - t0
        if obs is not None:
            obs.span("aggregate", "pipeline", t0, tid=tid, step=step)

        # A fully-skipped step (every compute process dumped elsewhere)
        # runs no operator phases — agreed globally via the allgather
        # so every staging rank stays in collective lockstep.
        if sum(d["n"] for d in gathered) == 0:
            report.latency = env.now - report.t_dump_start
            if obs is not None:
                obs.instant("step_skipped", "pipeline", tid=tid, step=step)
            yield from self._end_step(comm, step, report, received)
            return

        # -- 3. initialize ---------------------------------------------------
        # Under failures the worker set is the world's surviving ranks;
        # without failures this is exactly all of them.
        active = self.world.active_ranks
        ctxs: dict[str, OperatorContext] = {}
        for op in self.operators:
            ctx = OperatorContext(
                rank=comm.rank,
                nworkers=len(active),
                step=step,
                aggregated=aggregated[op.name],
                placement="staging",
                obs=obs,
            )
            ctxs[op.name] = ctx
            op.initialize(ctx)

        # -- 4. fetch + Map streaming pipeline --------------------------------
        # ``fetch_pipeline_depth`` bounds in-flight chunks *including*
        # the one being mapped: a slot is taken before the fetch and
        # released only after Map frees the chunk, so depth 1 strictly
        # serialises fetch and Map while depth k overlaps k-1 fetches.
        emits: dict[str, list[Emit]] = {op.name: [] for op in self.operators}
        chunk_store = Store(env)
        slots = Resource(env, self.config.fetch_pipeline_depth)
        fetch_clock = {"busy": 0.0}

        def fetcher():
            for req in requests:
                grant = slots.request()
                try:
                    yield grant
                except BaseException:
                    slots.cancel(grant)
                    raise
                t_f = env.now
                if resilience is None:
                    payload = yield from self.client.serve_fetch(
                        req.compute_rank, step, comm.node_id
                    )
                else:
                    try:
                        payload = yield from self._fetch_with_retry(req, step, comm)
                    except FetchTimeout as exc:
                        # out of attempts: fail the step that is waiting
                        # on this chunk, not just this child process
                        yield chunk_store.put(exc)
                        return
                fetch_clock["busy"] += env.now - t_f
                if obs is not None:
                    obs.span(
                        "fetch", "pipeline", t_f, tid=tid, step=step,
                        compute_rank=req.compute_rank,
                        nbytes=req.logical_nbytes,
                    )
                    obs.metrics.inc(
                        "bytes_fetched", req.logical_nbytes, stage=comm.rank
                    )
                ticket = None
                if pool is not None:
                    # Flow control: the chunk's bytes come from the
                    # governed buffer pool — a full pool blocks the
                    # fetcher here (backpressure) instead of crashing
                    # the node ledger with MemoryError_.
                    ticket = yield from pool.acquire(
                        (comm.rank, req.compute_rank, step), req.logical_nbytes
                    )
                    inflight["tickets"].append(ticket)
                    pool.unpin(ticket)  # parked in the queue: spillable
                elif node is not None:
                    node.allocate(req.logical_nbytes)
                    inflight["alloc"] += req.logical_nbytes
                yield chunk_store.put((req, payload, ticket))

        fproc = env.process(fetcher(), name=f"fetch[{comm.rank}]s{step}")
        inflight["fetcher"] = fproc
        t_stream0 = env.now
        map_busy = 0.0
        for _ in requests:
            chunk = yield chunk_store.get()
            if isinstance(chunk, FetchTimeout):
                raise chunk
            req, payload, ticket = chunk
            if ticket is not None:
                # re-pin for Map; unspills from the file system if the
                # chunk went cold under memory pressure
                yield from pool.ensure_resident(ticket)
            report.bytes_fetched += req.logical_nbytes
            step_obj = OutputStep.unpack(self.group, payload)
            for ctx in ctxs.values():
                ctx.volume_scale = step_obj.volume_scale
            # unpack touches the whole chunk once
            t_m = env.now
            if node is not None:
                yield env.timeout(node.memory_scan_time(req.logical_nbytes))
            for op in self.operators:
                yield from charge(node, op.map_flops(step_obj), threads)
                emits[op.name].extend(op.map(ctxs[op.name], step_obj))
            map_busy += env.now - t_m
            if obs is not None:
                obs.span(
                    "map", "pipeline", t_m, tid=tid, step=step,
                    compute_rank=req.compute_rank,
                )
            if env.check is not None:
                env.check.on_mapped((req.compute_rank, step), req.logical_nbytes)
            if ticket is not None:
                pool.release(ticket)
                try:
                    inflight["tickets"].remove(ticket)
                except ValueError:
                    pass
                flow.release_credits((req.compute_rank, step))
            elif node is not None:
                node.free(req.logical_nbytes)
                inflight["alloc"] -= req.logical_nbytes
            if node is not None:
                report.peak_buffer_bytes = max(
                    report.peak_buffer_bytes, node.memory_high_water
                )
            slots.release()
        yield fproc  # ensure fetcher wound down
        stream_total = env.now - t_stream0
        report.map = map_busy
        report.fetch = max(stream_total - map_busy, fetch_clock["busy"] - map_busy, 0.0)

        # -- 5.-7. combine, shuffle, reduce, finalize ------------------------
        for op in self.operators:
            res, times, shuffled = yield from combine_to_finalize(
                op, ctxs[op.name], emits[op.name], comm, active, threads, tid
            )
            t_combine, _t_shuffle, t_reduce, t_finalize, t_end = times
            self.results[op.name].setdefault(step, {})[comm.rank] = res
            report.bytes_shuffled += shuffled
            report.shuffle += t_reduce - t_combine
            report.reduce += t_finalize - t_reduce
            report.finalize += t_end - t_finalize

        report.latency = env.now - report.t_dump_start
        if obs is not None:
            obs.metrics.gauge_max(
                "peak_buffer_bytes", report.peak_buffer_bytes, stage=comm.rank
            )
            obs.metrics.observe(
                "step_latency_seconds", report.latency, stage=comm.rank
            )
        yield from self._end_step(comm, step, report, received)

    def _end_step(
        self, comm: Communicator, step: int, report: StepReport, received: dict
    ) -> Generator:
        """The one tail of a finished or skipped step: store *report*,
        fire the step listeners, commit, then fire the commit listeners.

        Under resilience the commit is the barrier of :meth:`_commit_step`;
        without it, step completion is the commit point: the outputs are
        durable the moment the rank's finalize returns.
        """
        self.rank_reports.setdefault(step, {})[comm.rank] = report
        for listener in self._step_listeners:
            listener(step, comm.rank)
        if self.config.resilience is not None:
            yield from self._commit_step(comm, step, received)
        for listener in self._commit_listeners:
            listener(step, comm.rank)

    # -- recovery protocol pieces -------------------------------------------
    def _commit_step(
        self, comm: Communicator, step: int, received: dict
    ) -> Generator:
        """Commit barrier: all survivors finished *step*, buffers free.

        Until the barrier completes, no rank releases any compute-side
        buffer of the step, so a crash inside the step can always be
        recovered by re-fetching; after it, every rank commits its own
        clients' dumps and advances in lockstep.
        """
        yield from comm.barrier()
        for src in sorted(received):
            self.client.commit(src, step)
        self.commit_times[step] = self.env.now
        if self.env.obs is not None:
            self.env.obs.instant(
                "step_commit", "recovery", tid=f"stage{comm.rank}", step=step
            )
        self._rank_step[comm.rank] = step + 1
        self._inflight.pop(comm.rank, None)

    def _fetch_with_retry(self, req: FetchRequest, step: int, comm: Communicator):
        """One chunk fetch under timeout + exponential-backoff retry.

        Each attempt runs ``serve_fetch`` as a child process raced
        against the per-attempt timeout; a losing attempt is interrupted
        (the buffer survives — resilient fetches don't consume it) and
        re-issued after a doubling backoff.
        """
        env = self.env
        r = self.config.resilience
        delay = r.fetch_retry_backoff
        for attempt in range(r.fetch_max_attempts):
            proc = env.process(
                self.client.serve_fetch(
                    req.compute_rank, step, comm.node_id, attempt=attempt
                ),
                name=f"fetch-try[{comm.rank}]c{req.compute_rank}s{step}a{attempt}",
            )
            deadline = env.timeout(r.fetch_timeout)
            try:
                yield env.any_of([proc, deadline])
            except FetchDropped:
                pass
            except BaseException:
                # the step itself is being aborted: kill the attempt
                if proc.is_alive:
                    proc.interrupt("step aborted")
                raise
            corrupt = False
            if proc.triggered and proc.ok:
                payload = proc.value
                if self.client.payload_ok(req.compute_rank, step, payload):
                    return payload
                # the bytes arrived but fail the pack-time checksum:
                # reject the garbage chunk and re-fetch (the compute-side
                # buffer survives in resilient mode)
                corrupt = True
            if proc.is_alive:
                proc.interrupt("fetch timed out")
            self.fetch_retries += 1
            if env.check is not None:
                env.check.on_retry((req.compute_rank, step), attempt)
            if env.obs is not None:
                env.obs.metrics.inc("fetch_retries", stage=comm.rank)
                env.obs.instant(
                    "corrupt_chunk_rejected" if corrupt else "fetch_retry",
                    "recovery", tid=f"stage{comm.rank}",
                    compute_rank=req.compute_rank, step=step, attempt=attempt,
                )
            if attempt + 1 < r.fetch_max_attempts:
                yield env.timeout(delay)
                delay *= 2.0
        raise FetchTimeout(req.compute_rank, step, r.fetch_max_attempts)
