"""``repro.obs`` — sim-time-aware observability for the pipeline.

The paper's whole argument is made through per-phase timing (Fig. 7's
computation/communication/I-O breakdowns); this package makes the same
breakdown available *inside* the reproduction, per run, per staging
rank, per chunk:

- :class:`~repro.obs.tracer.Tracer` — structured spans for every
  pipeline phase (pack, request, scheduler wait, fetch, Map, Combine,
  Shuffle, Reduce, Finalize, recovery events), exportable as JSON-lines
  and as the Chrome ``trace_event`` format viewable in Perfetto
  (https://ui.perfetto.dev);
- :class:`~repro.obs.metrics.MetricsRegistry` — labelled counters,
  gauges and histograms (bytes fetched, scheduler defers, shuffle
  bytes per reducer pair, per-reducer bucket-row counts, buffer
  high-water marks, retries, degraded steps);
- :class:`Observability` — the facade instrumented code talks to,
  bound to an :class:`~repro.sim.engine.Engine` via :meth:`bind`.

Observability is **off by default**: ``Engine.obs`` is ``None`` and
every instrumentation site is guarded by a single ``is None`` check,
so the disabled pipeline is byte-identical to the uninstrumented one
(asserted by the determinism guard in ``tests/test_obs.py``).  When
enabled, recording never yields or advances the simulated clock, so
the *simulated* results are identical too — only host-side memory and
wall time are spent.

Typical use::

    obs = Observability()
    eng = Engine()
    obs.bind(eng, label="gtc:sort:16384:staging")
    ... run the simulation ...
    obs.dump("trace.json")       # Chrome trace + JSON-lines sidecar
    print(obs.metrics.summary_table())
"""

from __future__ import annotations

from repro.obs.metrics import HistogramStat, MetricsRegistry
from repro.obs.tracer import Span, Tracer

__all__ = [
    "HistogramStat",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Tracer",
]


class Observability:
    """One tracer + one metrics registry, bound to simulation engines.

    A single instance may be re-bound across several sequential runs
    (each :meth:`bind` opens a fresh trace process, so Perfetto shows
    one named track group per run).
    """

    def __init__(self, label: str = "run") -> None:
        self.label = label
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self._env = None
        self._pid = -1
        self._nruns = 0

    # -- wiring -------------------------------------------------------------
    def bind(self, env, label: str | None = None) -> None:
        """Attach to *env*: sets ``env.obs`` and opens a trace process."""
        self._env = env
        self._pid = self.tracer.begin_process(label or f"{self.label}#{self._nruns}")
        self._nruns += 1
        env.obs = self

    @property
    def now(self) -> float:
        """Current simulated time of the bound engine (0.0 unbound)."""
        return self._env.now if self._env is not None else 0.0

    # -- recording shorthands ------------------------------------------------
    def span(
        self,
        name: str,
        cat: str,
        start: float,
        *,
        tid: str = "main",
        end: float | None = None,
        **args: object,
    ) -> Span:
        """Record a completed phase span ``[start, end or now]``."""
        return self.tracer.span(
            name,
            cat,
            start,
            self.now if end is None else end,
            pid=self._pid,
            tid=tid,
            **args,
        )

    def instant(self, name: str, cat: str, *, tid: str = "main", **args: object) -> Span:
        """Record a zero-duration event at the current simulated time."""
        return self.tracer.instant(name, cat, self.now, pid=self._pid, tid=tid, **args)

    # -- export -------------------------------------------------------------
    def dump(self, path: str) -> list[str]:
        """Write the Chrome trace to *path* plus a ``.jsonl`` sidecar.

        Returns the list of files written.  Open the ``.json`` file in
        Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
        """
        self.tracer.write_chrome_trace(path)
        sidecar = path + "l" if path.endswith(".json") else path + ".jsonl"
        self.tracer.write_jsonl(sidecar)
        return [path, sidecar]

    def report(self, path: str, title: str) -> str:
        """:meth:`dump` to *path*; returns the ``--trace`` epilogue: the
        metrics table titled *title*, then the files written."""
        written = self.dump(path)
        return (
            self.metrics.summary_table(title=title)
            + "\ntrace written: " + ", ".join(written)
            + "  (open the .json in https://ui.perfetto.dev)"
        )
