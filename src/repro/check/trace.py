"""Executed-schedule recording and minimized trace diffs.

A :class:`ScheduleTrace` attaches to ``Engine.schedule_trace`` and
records every event pop as ``(time, priority, label)``, maintaining a
running SHA-256 over the stream — the *schedule hash*.  Two runs with
the same tie-breaker seed produce the same hash (replay determinism);
two runs whose seeds actually reordered simultaneous events produce
different hashes, which is how the fuzzer proves it explored distinct
schedules and not just re-ran the same one N times.

The hash deliberately excludes the tie-breaker sub-key and the
insertion sequence number: it fingerprints *what executed when*, not
the random numbers that produced the order.

:func:`minimized_trace_diff` renders the difference between two traces
for divergence reports: the common prefix and suffix are trimmed, so a
hidden ordering race shows up as a short window around the first
reordered event instead of two full event logs.
"""

from __future__ import annotations

import hashlib

__all__ = ["ScheduleTrace", "minimized_trace_diff"]

#: cap on the event tuples a :class:`ScheduleTrace` retains
MAX_EVENTS = 200_000
#: events :func:`minimized_trace_diff` renders per side
_MAX_DIFF_LINES = 40
#: shared events :func:`minimized_trace_diff` shows before the divergence
_CONTEXT = 3


def _label(event) -> str:
    """Stable human-readable identity of one queue entry."""
    kind = type(event).__name__
    name = getattr(event, "name", "")
    if name:
        return f"{kind}:{name}"
    delay = getattr(event, "delay", None)
    if delay is not None:
        return f"{kind}:{delay:g}"
    return kind


class ScheduleTrace:
    """Records event pops; exposes the executed-schedule hash.

    At most :data:`MAX_EVENTS` ``(time, priority, label)`` tuples are
    retained; the hash and the pop counter always cover the full run.
    """

    def __init__(self):
        self.events: list[tuple[float, int, str]] = []
        self.count = 0
        self._hash = hashlib.sha256()

    def record(self, t: float, priority: int, sub: int, seq: int, event) -> None:
        """Engine callback: one event popped off the queue."""
        label = _label(event)
        self._hash.update(f"{t:.9f}|{priority}|{label};".encode())
        self.count += 1
        if len(self.events) < MAX_EVENTS:
            self.events.append((t, priority, label))

    @property
    def schedule_hash(self) -> str:
        """SHA-256 over every ``(time, priority, label)`` popped so far."""
        return self._hash.hexdigest()

    def __repr__(self) -> str:
        return (
            f"ScheduleTrace(count={self.count}, "
            f"hash={self.schedule_hash[:12]}...)"
        )


def _fmt(entry: tuple[float, int, str]) -> str:
    t, prio, label = entry
    return f"t={t:.6f} prio={prio} {label}"


def minimized_trace_diff(
    a: list[tuple[float, int, str]],
    b: list[tuple[float, int, str]],
    *,
    names: tuple[str, str] = ("baseline", "perturbed"),
) -> str:
    """Minimal window where two event traces diverge, with
    :data:`_CONTEXT` shared events before it.

    Trims the common prefix and common suffix, then renders the
    remaining windows side by side (prefixed ``-``/``+``).  Returns
    ``"traces identical"`` when there is nothing to show.
    """
    if a == b:
        return "traces identical"
    lo = 0
    limit = min(len(a), len(b))
    while lo < limit and a[lo] == b[lo]:
        lo += 1
    hi = 0
    while (
        hi < limit - lo
        and a[len(a) - 1 - hi] == b[len(b) - 1 - hi]
    ):
        hi += 1
    a_win = a[max(0, lo - _CONTEXT) : len(a) - hi]
    b_win = b[max(0, lo - _CONTEXT) : len(b) - hi]
    lines = [
        f"first divergence at event #{lo} "
        f"({len(a)} vs {len(b)} events total, "
        f"{hi} common trailing events trimmed)"
    ]
    shared = a[max(0, lo - _CONTEXT) : lo]
    for e in shared:
        lines.append(f"  {_fmt(e)}")
    for e in a_win[len(shared) : len(shared) + _MAX_DIFF_LINES]:
        lines.append(f"- [{names[0]}] {_fmt(e)}")
    if len(a_win) - len(shared) > _MAX_DIFF_LINES:
        lines.append(f"- [{names[0]}] ... {len(a_win) - len(shared) - _MAX_DIFF_LINES} more")
    for e in b_win[len(shared) : len(shared) + _MAX_DIFF_LINES]:
        lines.append(f"+ [{names[1]}] {_fmt(e)}")
    if len(b_win) - len(shared) > _MAX_DIFF_LINES:
        lines.append(f"+ [{names[1]}] ... {len(b_win) - len(shared) - _MAX_DIFF_LINES} more")
    return "\n".join(lines)
