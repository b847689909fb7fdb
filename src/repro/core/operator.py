"""The PreDatA pluggable operator API.

An operator participates in the two-pass processing model of §IV.B–C:

First pass (compute node, Stage 1a — optional, deterministic delay):
    :meth:`PreDatAOperator.partial_calculate` runs on the local output
    data before packing; its small result rides on the data-fetch
    request (Stage 1c).

Request-time aggregation (staging node, Stage 2):
    :meth:`PreDatAOperator.aggregate` combines the partial results of
    all compute processes — global sizes, prefix sums, min/max, sample
    splitters — *before* any bulk data moves.

Second pass (staging nodes, Stage 4 / Fig. 5 — streaming):
    ``initialize -> map (per chunk) -> combine -> partition -> reduce
    -> finalize``.

Cost accounting: the functional work really executes on numpy data, but
simulated *time* is charged through the ``*_flops`` hooks so results
are host-independent.  Defaults charge a few flops per byte touched;
operators with real computational kernels (histograms, sorting)
override them.

Both placements run the same operator: :func:`combine_to_finalize` is
the one body of Fig. 5's stages 5–7 that the staging service and the
in-compute runner drive, and :func:`worst_rank` is the one cross-rank
merge behind every per-step and per-run report.
"""

from __future__ import annotations

import inspect
import zlib
from dataclasses import dataclass, field, fields
from numbers import Integral
from typing import Any, Generator, Hashable, Iterable, Optional, Sequence, TypeVar

from repro.adios.group import OutputStep
from repro.mpi.communicator import Communicator
from repro.mpi.datasize import nbytes_of

__all__ = [
    "Emit", "OperatorContext", "PreDatAOperator", "StepReport",
    "charge", "combine_to_finalize", "worst_rank",
]

_R = TypeVar("_R")


#: A tagged intermediate result produced by Map/Combine.
@dataclass(frozen=True, slots=True)
class Emit:
    """One intermediate item: routed by ``tag``, carrying ``value``.

    Frozen, so ``nbytes`` — the value's wire size plus a 16-byte tag —
    is computed once, when the item is made, however many times the
    shuffle sizes it.
    """

    tag: Hashable
    value: Any
    nbytes: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nbytes", nbytes_of(self.value) + 16)


@dataclass
class StepReport:
    """Per-I/O-step timing breakdown of the staging pipeline.

    All times in simulated seconds; ``latency`` is from the moment the
    application initiated the dump to finalize completion — the paper's
    'latency to operation completion' (e.g. ~30 s sorting latency at
    §V.B.1).
    """

    step: int
    t_dump_start: float = 0.0
    gather_requests: float = 0.0
    aggregate: float = 0.0
    fetch: float = 0.0
    map: float = 0.0
    shuffle: float = 0.0
    reduce: float = 0.0
    finalize: float = 0.0
    latency: float = 0.0
    bytes_fetched: float = 0.0
    bytes_shuffled: float = 0.0
    peak_buffer_bytes: float = 0.0

    @property
    def operation_time(self) -> float:
        """Staging-side wall time across all phases."""
        return (
            self.gather_requests
            + self.aggregate
            + self.fetch
            + self.map
            + self.shuffle
            + self.reduce
            + self.finalize
        )


@dataclass
class OperatorContext:
    """Runtime state handed to operator callbacks.

    Attributes
    ----------
    rank / nworkers:
        This staging process's rank in the staging world and the number
        of staging processes (or the compute rank/world size when the
        operator is placed in compute nodes).
    aggregated:
        Output of :meth:`PreDatAOperator.aggregate` for this step.
    storage:
        Scratch dict private to (operator, rank); survives across
        phases within one step.
    step: current I/O step number.
    placement: ``"staging"`` or ``"compute"``.
    obs:
        The run's :class:`repro.obs.Observability` sink, or ``None``
        when observability is disabled (the default).  Operators with
        interesting internal state may record custom metrics::

            if ctx.obs is not None:
                ctx.obs.metrics.inc("my_metric", n, op=self.name)
    """

    rank: int
    nworkers: int
    step: int
    aggregated: Any = None
    storage: dict = field(default_factory=dict)
    placement: str = "staging"
    #: logical-to-functional volume ratio of the chunks seen this step;
    #: set by the runtime once the first chunk is unpacked.
    volume_scale: float = 1.0
    #: observability sink (None = disabled); see class docstring.
    obs: Any = None


class PreDatAOperator:
    """Base class for pluggable PreDatA data operations.

    Subclasses override any subset of the hooks; each default is a
    sensible no-op so trivial operators stay trivial.
    """

    #: Operator name used in reports and result dictionaries.
    name: str = "operator"

    # -- pass 1: compute node -------------------------------------------
    def partial_calculate(self, step: OutputStep) -> Any:
        """Local first-pass over one process's output; returns a small
        partial result attached to the data-fetch request (or None)."""
        return None

    def partial_flops(self, step: OutputStep) -> float:
        """Compute cost of :meth:`partial_calculate` in flop."""
        return 0.0

    # -- stage 2: request-time aggregation -------------------------------
    def aggregate(self, partials: list[Any]) -> Any:
        """Combine partial results from all compute processes."""
        return None

    # -- stage 4: streaming phases ----------------------------------------
    def initialize(self, ctx: OperatorContext) -> None:
        """Once per step, before the first chunk, with ctx.aggregated set."""

    def map(self, ctx: OperatorContext, step: OutputStep) -> Iterable[Emit]:
        """Process one packed partial data chunk; yield tagged items."""
        return ()

    def map_flops(self, step: OutputStep) -> float:
        """Compute cost of :meth:`map` per chunk, in flop.

        Default: two flops per *logical* byte (one read-touch, one op).
        """
        return 2.0 * step.nbytes_logical

    def combine(
        self, ctx: OperatorContext, items: list[Emit]
    ) -> list[Emit]:
        """Optional local pre-reduction before the shuffle."""
        return items

    def combine_flops(self, ctx: OperatorContext, items: list[Emit]) -> float:
        """Cost of :meth:`combine` in flop at *logical* scale — use
        ``ctx.volume_scale`` for data-proportional work."""
        return 0.0

    def partition(self, ctx: OperatorContext, tag: Hashable) -> int:
        """Staging rank that reduces *tag*.

        Integer tags map to ``tag % nworkers``; anything else goes
        through CRC-32 of its ``repr`` — not ``hash()``, whose value for
        strings changes with ``PYTHONHASHSEED`` and would move reducer
        placement (and every per-reducer metric label) between
        processes.
        """
        if isinstance(tag, Integral):
            return int(tag) % ctx.nworkers
        return zlib.crc32(repr(tag).encode()) % ctx.nworkers

    def reduce(
        self, ctx: OperatorContext, tag: Hashable, values: list[Any]
    ) -> Optional[Any]:
        """Combine all values routed to *tag*; returns the final value."""
        return values

    def reduce_flops(
        self, ctx: OperatorContext, tag: Hashable, values: list[Any]
    ) -> float:
        """Cost of :meth:`reduce` in flop at *logical* scale.

        Data-proportional reductions multiply by ``ctx.volume_scale``
        (the default does); reductions over fixed-size summaries
        (histogram count vectors) return their true, unscaled cost.
        """
        return 2.0 * sum(nbytes_of(v) for v in values) * ctx.volume_scale

    def reduce_membytes(
        self, ctx: OperatorContext, tag: Hashable, values: list[Any]
    ) -> float:
        """Memory traffic of :meth:`reduce` in bytes at logical scale
        (for memory-bound reductions such as large sorts/merges, where
        flops undercount the true cost).  Charged against the node's
        memory bandwidth.  Default: none."""
        return 0.0

    def finalize(
        self, ctx: OperatorContext, reduced: dict[Hashable, Any]
    ) -> Optional[Generator]:
        """End of step: persist results / hand off downstream.

        May be a plain method (returns None or a result object) or a
        generator (``yield from``-able) that performs simulated I/O —
        the staging runtime detects and drives generators.  Whatever it
        returns is stored as the operator's result for the step.
        """
        return None

    # -- scaling hint ------------------------------------------------------
    def logical_fraction_shuffled(self) -> float:
        """Fraction of input volume this operator sends through the
        shuffle at full scale (used to extrapolate wire volume when the
        functional payload is scaled down).  1.0 for reorganisation-type
        operators (sort, merge); ~0 for reduction-type (histograms)."""
        return 1.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def charge(node, flops: float, cores: int) -> Iterable:
    """What a process body ``yield from``s to occupy *cores* of *node*
    for *flops* of work: nothing when there is no work, or no node."""
    if flops > 0 and node is not None:
        return node.compute(flops, cores=cores)
    return ()


def _rows_of(values: list[Any]) -> int:
    """Row count of a reduce bucket (non-array values count as 1)."""
    total = 0
    for v in values:
        shape = getattr(v, "shape", None)
        total += int(shape[0]) if shape else 1
    return total


def combine_to_finalize(
    op: PreDatAOperator,
    ctx: OperatorContext,
    items: list[Emit],
    comm: Communicator,
    ranks: Sequence[int],
    cores: int,
    tid: str,
) -> Generator:
    """Process body: Fig. 5 stages 5–7 of one operator on one rank.

    The one body both placements run: ``combine`` (its flops charged
    on *cores* of the rank's node), ``partition`` of every item onto
    ``ranks[partition(tag) % len(ranks)]``, one MPI all-to-all at
    ``1 + (volume_scale - 1) * logical_fraction_shuffled()``, ``reduce``
    per tag (flops and memory traffic charged), then ``finalize``,
    driven when it is a generator.  Spans and metrics go to ``ctx.obs``
    on track *tid*.

    Returns ``(result, times, shuffled)``: finalize's return value, the
    phase boundaries ``(t_combine, t_shuffle, t_reduce, t_finalize,
    t_end)`` in simulated seconds, and the logical bytes this rank sent
    through the shuffle.  Each caller derives its own account of the
    step (a :class:`StepReport` or an in-compute timing) from the same
    boundaries.
    """
    env = comm.env
    node = comm.node
    obs = ctx.obs
    step = ctx.step
    t_combine = env.now
    items = op.combine(ctx, items)
    yield from charge(node, op.combine_flops(ctx, items), cores)
    t_shuffle = env.now
    if obs is not None:
        obs.span(
            "combine", "pipeline", t_combine, end=t_shuffle, tid=tid,
            step=step, op=op.name, items=len(items),
        )
    outbound: list[list[Emit]] = [[] for _ in range(comm.size)]
    for e in items:
        # partition() indexes workers; map onto the participating ranks
        # (the surviving staging ranks, or the whole compute world)
        outbound[ranks[op.partition(ctx, e.tag) % len(ranks)]].append(e)
    # Reduction-type operators shuffle fixed-size summaries; the wire
    # inflation only applies to the data fraction that really crosses
    # the shuffle at full scale.
    eff_scale = 1.0 + (ctx.volume_scale - 1.0) * op.logical_fraction_shuffled()
    inbound_rows = yield from comm.alltoall(outbound, wire_scale=eff_scale)
    shuffled = sum(e.nbytes for row in outbound for e in row) * eff_scale
    t_reduce = env.now
    if obs is not None:
        obs.span("shuffle", "pipeline", t_shuffle, tid=tid, step=step, op=op.name)
        # per (sender, reducer) wire volume — the skew that collapses a
        # sort onto one reducer shows up here.
        for dst, row in enumerate(outbound):
            if row:
                obs.metrics.inc(
                    "shuffle_bytes",
                    sum(e.nbytes for e in row) * eff_scale,
                    op=op.name, src=comm.rank, dst=dst,
                )

    groups: dict[Hashable, list[Any]] = {}
    for row in inbound_rows:
        for e in row:
            groups.setdefault(e.tag, []).append(e.value)
    if obs is not None:
        # materialise the series even for empty reducers, so a skewed
        # key distribution reads as one huge row count next to a column
        # of zeros.
        obs.metrics.inc("bucket_rows", 0.0, op=op.name, reducer=comm.rank)
    reduced: dict[Hashable, Any] = {}
    for tag, values in groups.items():
        yield from charge(node, op.reduce_flops(ctx, tag, values), cores)
        rmem = op.reduce_membytes(ctx, tag, values)
        if rmem > 0 and node is not None:
            yield env.timeout(node.memory_scan_time(rmem))
        out = op.reduce(ctx, tag, values)
        if out is not None:
            reduced[tag] = out
        if obs is not None:
            rows = _rows_of(values)
            obs.metrics.inc("bucket_rows", rows, op=op.name, reducer=comm.rank)
            obs.metrics.observe("bucket_rows_per_tag", rows, op=op.name)
    t_finalize = env.now
    if obs is not None:
        obs.span(
            "reduce", "pipeline", t_reduce, tid=tid, step=step,
            op=op.name, ntags=len(groups),
        )

    result = op.finalize(ctx, reduced)
    if inspect.isgenerator(result):
        result = yield from result
    t_end = env.now
    if obs is not None:
        obs.span("finalize", "pipeline", t_finalize, tid=tid, step=step, op=op.name)
    return result, (t_combine, t_shuffle, t_reduce, t_finalize, t_end), shuffled


def worst_rank(
    records: Iterable[_R], *, least: tuple = (), summed: tuple = ()
) -> _R:
    """Merge per-rank dataclass records into one worst-rank record.

    Every field is the maximum across ranks, except the *least* fields
    (the minimum, e.g. the earliest dump start) and the *summed* ones
    (the total, e.g. bytes moved by all ranks).
    """
    records = list(records)
    pick = dict.fromkeys(least, min) | dict.fromkeys(summed, sum)
    return type(records[0])(**{
        f.name: pick.get(f.name, max)(getattr(r, f.name) for r in records)
        for f in fields(records[0])
    })
