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
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from numbers import Integral
from typing import Any, Generator, Hashable, Iterable, Optional

from repro.adios.group import OutputStep
from repro.mpi.datasize import nbytes_of

__all__ = ["Emit", "OperatorContext", "PreDatAOperator", "StepReport"]


#: A tagged intermediate result produced by Map/Combine.
@dataclass
class Emit:
    """One intermediate item: routed by ``tag``, carrying ``value``."""

    tag: Hashable
    value: Any

    @property
    def nbytes(self) -> float:
        return nbytes_of(self.value) + 16


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
