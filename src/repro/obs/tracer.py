"""Structured span tracing over *simulated* time.

The :class:`Tracer` records two kinds of records:

- **spans** — closed intervals ``[start, end]`` of simulated seconds
  covering one pipeline phase on one actor (a staging rank, a compute
  rank, the file system, ...);
- **instant events** — zero-duration marks (a node crash, a failure
  detection, a recovery restart).

Both carry a ``pid`` (one per bound simulation run, so several runs
can share a trace file) and a ``tid`` (the actor within the run), which
is exactly the process/thread model of the Chrome ``trace_event``
format.  :meth:`Tracer.chrome_trace` renders the whole recording as a
Perfetto-loadable JSON object; :meth:`Tracer.write_jsonl` writes one
plain JSON record per line for ad-hoc tooling.

The tracer performs no simulation activity of its own: recording a
span never yields, never advances the clock, and never perturbs event
ordering, so an instrumented run is event-for-event identical to an
uninstrumented one (the determinism guard in ``tests/test_obs.py``
asserts this bit-for-bit).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer"]


@dataclass(frozen=True)
class Span:
    """One traced interval (or instant, when ``end == start``)."""

    name: str
    cat: str
    start: float  # simulated seconds
    end: float  # simulated seconds; == start for instant events
    pid: int
    tid: str
    args: dict = field(default_factory=dict)
    instant: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        """Plain-dict form used by the JSON-lines export."""
        rec = {
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.instant:
            rec["instant"] = True
        if self.args:
            rec["args"] = self.args
        return rec


class Tracer:
    """Collects spans and instant events across one or more runs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._pid_labels: dict[int, str] = {}
        self._next_pid = 0

    # -- process bookkeeping ------------------------------------------------
    def begin_process(self, label: str) -> int:
        """Open a new trace process (one simulation run); returns its pid."""
        pid = self._next_pid
        self._next_pid += 1
        self._pid_labels[pid] = label
        return pid

    # -- recording ----------------------------------------------------------
    def span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        *,
        pid: int = 0,
        tid: str = "main",
        **args: object,
    ) -> Span:
        """Record one completed interval; returns the stored span."""
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        s = Span(name, cat, start, end, pid, tid, dict(args))
        self.spans.append(s)
        return s

    def instant(
        self,
        name: str,
        cat: str,
        time: float,
        *,
        pid: int = 0,
        tid: str = "main",
        **args: object,
    ) -> Span:
        """Record one zero-duration mark; returns the stored span."""
        s = Span(name, cat, time, time, pid, tid, dict(args), instant=True)
        self.spans.append(s)
        return s

    # -- queries ------------------------------------------------------------
    def by_name(self, name: str) -> list[Span]:
        """All spans called *name*, in recording order."""
        return [s for s in self.spans if s.name == name]

    def categories(self) -> set[str]:
        """Every category that appears in the recording."""
        return {s.cat for s in self.spans}

    def names(self) -> set[str]:
        """Every span/event name that appears in the recording."""
        return {s.name for s in self.spans}

    # -- exports ------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The recording as a Chrome ``trace_event`` JSON object.

        Times are exported in microseconds (the format's unit); spans
        become complete (``ph: "X"``) events, instants become ``ph:
        "i"`` events, and process labels ride on ``process_name``
        metadata events so Perfetto shows one named track per run.
        """
        events: list[dict] = []
        for pid, label in sorted(self._pid_labels.items()):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
        for s in self.spans:
            ev = {
                "name": s.name,
                "cat": s.cat,
                "pid": s.pid,
                "tid": s.tid,
                "ts": s.start * 1e6,
                "args": s.args,
            }
            if s.instant:
                ev["ph"] = "i"
                ev["s"] = "t"  # thread-scoped instant
            else:
                ev["ph"] = "X"
                ev["dur"] = s.duration * 1e6
            events.append(ev)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        """Write :meth:`chrome_trace` to *path* (open in Perfetto)."""
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)

    def write_jsonl(self, path: str) -> None:
        """Write one JSON record per span to *path*."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.to_json()))
                f.write("\n")
