"""Labelled counters, gauges and histograms for the staging pipeline.

A metric is identified by its name plus a (sorted) tuple of label
key/value pairs, mirroring the Prometheus data model at toy scale:

- **counters** accumulate (bytes fetched, shuffle bytes per reducer
  pair, scheduler defers, fetch retries, ...);
- **gauges** hold the latest or the maximum observed value (buffer
  high-water marks);
- **histograms** track count/sum/min/max of an observed distribution
  (per-reducer bucket-row counts — a skewed key distribution shows up
  directly as one reducer's ``bucket_rows`` dwarfing the others').

Everything is plain in-memory arithmetic: updating a metric never
touches the simulation clock, so instrumented runs stay deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["HistogramStat", "MetricsRegistry", "quantile"]

LabelKey = tuple[str, tuple[tuple[str, object], ...]]


def quantile(values: Iterable[float], q: float) -> float:
    """Nearest-rank *q*-quantile of *values* (0.0 for an empty sequence)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def _key(name: str, labels: dict[str, object]) -> LabelKey:
    return (name, tuple(sorted(labels.items())))


def _label_sort_key(labels: tuple[tuple[str, object], ...]) -> tuple:
    """Type-stable sort key for one frozen label tuple.

    Plain ``sorted()`` over label tuples raises ``TypeError`` the moment
    one series of a metric carries ``rank=0`` and another ``rank="all"``:
    label values are whatever the instrumentation site passed.  Numbers
    still sort numerically among themselves, strings lexically; mixed
    types order by kind.
    """
    out = []
    for k, v in labels:
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            out.append((k, 1, "", float(v)))
        else:
            out.append((k, 0, str(v), 0.0))
    return tuple(out)


@dataclass
class HistogramStat:
    """Streaming summary of one observed distribution.

    Besides count/total/min/max, a bounded, deterministically decimated
    sample buffer is retained so tail quantiles (p50/p99 latencies) can
    be read back: once the buffer reaches :data:`SAMPLE_CAP` samples it
    is thinned to every other element and the retention stride doubles.
    The decimation depends only on the observation sequence, never on a
    clock or RNG, so instrumented runs stay deterministic.
    """

    SAMPLE_CAP = 2048

    count: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))
    samples: list = field(default_factory=list, repr=False)
    sample_stride: int = field(default=1, repr=False)

    def observe(self, value: float) -> None:
        """Fold *value* into the running count/total/min/max."""
        if self.count % self.sample_stride == 0:
            self.samples.append(value)
            if len(self.samples) >= self.SAMPLE_CAP:
                self.samples = self.samples[::2]
                self.sample_stride *= 2
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank *q*-quantile over the retained samples.

        Exact while fewer than :data:`SAMPLE_CAP` values have been
        observed; an even-stride approximation afterwards.  Returns 0.0
        before any observation.
        """
        return quantile(self.samples, q)


class MetricsRegistry:
    """In-memory store of labelled counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: dict[LabelKey, float] = {}
        self._gauges: dict[LabelKey, float] = {}
        self._histograms: dict[LabelKey, HistogramStat] = {}

    # -- updates ------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add *value* to the counter ``name{labels}``."""
        k = _key(name, labels)
        self._counters[k] = self._counters.get(k, 0.0) + value

    def gauge_max(self, name: str, value: float, **labels: object) -> None:
        """Raise the gauge ``name{labels}`` to *value* if higher."""
        k = _key(name, labels)
        if value > self._gauges.get(k, float("-inf")):
            self._gauges[k] = value

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Feed *value* into the histogram ``name{labels}``."""
        k = _key(name, labels)
        hist = self._histograms.get(k)
        if hist is None:
            hist = self._histograms[k] = HistogramStat()
        hist.observe(value)

    # -- reads --------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> float:
        """Current value of one counter (0.0 when never incremented)."""
        return self._counters.get(_key(name, labels), 0.0)

    def gauge(self, name: str, **labels: object) -> float | None:
        """Current value of one gauge, or None when never set."""
        return self._gauges.get(_key(name, labels))

    def histogram(self, name: str, **labels: object) -> HistogramStat | None:
        """The summary of one histogram, or None when never observed."""
        return self._histograms.get(_key(name, labels))

    def series(self, name: str) -> dict[tuple[tuple[str, object], ...], float]:
        """All label combinations of counter/gauge *name* -> value.

        Keys are the frozen ``((label, value), ...)`` tuples; use
        :meth:`labelled` for a friendlier dict-keyed view.
        """
        out = {}
        for store in (self._counters, self._gauges):
            for (n, labels), v in store.items():
                if n == name:
                    out[labels] = v
        return out

    def labelled(self, name: str) -> list[tuple[dict, float]]:
        """``(labels-dict, value)`` pairs of counter/gauge *name*."""
        rows = sorted(
            self.series(name).items(), key=lambda kv: _label_sort_key(kv[0])
        )
        return [(dict(labels), v) for labels, v in rows]

    # -- export -------------------------------------------------------------
    @staticmethod
    def _fmt_labels(labels: tuple[tuple[str, object], ...]) -> str:
        if not labels:
            return ""
        inner = ",".join(f"{k}={v}" for k, v in labels)
        return "{" + inner + "}"

    def summary_rows(self) -> list[tuple[str, str, str]]:
        """``(metric, kind, value)`` rows, sorted by metric name."""

        def order(item):
            (name, labels), _v = item
            return (name, _label_sort_key(labels))

        rows: list[tuple[str, str, str]] = []
        for (name, labels), v in sorted(self._counters.items(), key=order):
            rows.append((name + self._fmt_labels(labels), "counter", f"{v:g}"))
        for (name, labels), v in sorted(self._gauges.items(), key=order):
            rows.append((name + self._fmt_labels(labels), "gauge", f"{v:g}"))
        for (name, labels), h in sorted(self._histograms.items(), key=order):
            rows.append(
                (
                    name + self._fmt_labels(labels),
                    "histogram",
                    f"n={h.count} mean={h.mean:g} "
                    f"min={h.minimum:g} max={h.maximum:g}",
                )
            )
        return rows

    def summary_table(self, title: str = "metrics") -> str:
        """Aligned plain-text dump of every metric."""
        rows = self.summary_rows()
        if not rows:
            return f"{title}: (no metrics recorded)"
        widths = [
            max(len(r[i]) for r in rows + [("metric", "kind", "value")])
            for i in range(3)
        ]
        lines = [title]
        header = ("metric", "kind", "value")
        lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths, strict=True)))
        lines.append("-+-".join("-" * w for w in widths))
        for r in rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths, strict=True)))
        return "\n".join(lines)
