"""Benchmark groups, their one driver, and the regression guard.

A group is a :class:`Bench` in :data:`BENCHES`, one ``BENCH_<name>.json``
sidecar each:

- ``kernels`` (:func:`bench_kernels`) — every kernel, its
  :data:`~repro.perf.kernels.NAIVE` reference body vs the production
  one, on adversarially dense inputs (default 1M elements);
- ``query``, ``stream``, ``chaos_matrix`` — the seeded simulated-time
  runs of :mod:`repro.serve.bench`, :mod:`repro.stream.bench` and
  :func:`repro.scenarios.runner.sweep`.

Each record carries a ``guards`` dict of *machine-portable* ratio
metrics (fast path relative to the reference path, measured in the same
process on the same host).  :func:`compare` fails a run when any guard
falls more than :data:`TOLERANCE` (20 %) below the committed
baseline in ``benchmarks/perf/baselines/`` — absolute wall seconds are
recorded for humans but never compared, so the guard is stable across
host speeds.

:func:`run_benches` is the only launcher: ``python -m repro perf``,
``serve``, ``stream`` and ``scenarios sweep`` all run it.
"""

from __future__ import annotations

import argparse
import json
import pkgutil
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import takewhile
from pathlib import Path
from typing import Any

import numpy as np

from repro.perf import kernels as K

__all__ = [
    "BENCHES",
    "Bench",
    "baseline_dir",
    "bench_kernels",
    "compare",
    "default_baseline_dir",
    "guard_record",
    "main",
    "run_benches",
    "serve_main",
    "stream_main",
    "write_record",
]

#: kernels whose vectorized speedup is an acceptance criterion
HOT_KERNELS = ("histogram1d", "histogram2d", "wah_encode")


#: allowed fractional regression of a guard below its baseline
TOLERANCE = 0.2

#: a timed sample shorter than this is mostly timer and scheduler noise
_MIN_SAMPLE_SECONDS = 0.01
#: samples :func:`_best_of` takes the best of
_SAMPLES = 3


def _best_of(fn: Callable[[], Any]) -> float:
    """Best per-call wall time of :data:`_SAMPLES` samples (min filters
    scheduler noise).

    A sample repeats the call until it has lasted
    :data:`_MIN_SAMPLE_SECONDS` (``timeit``-style autorange), so a
    sub-millisecond call is averaged over dozens of runs instead of
    being timed once; a call longer than that is still one per sample.
    """
    best = float("inf")
    for _ in range(_SAMPLES):
        calls = 0
        t0 = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= _MIN_SAMPLE_SECONDS:
                break
        best = min(best, elapsed / calls)
    return best


def _kernel_cases(n: int, rng: np.random.Generator) -> dict[str, tuple]:
    """Argument tuples per kernel, sized to *n* elements."""
    values = rng.normal(size=n)
    edges = np.linspace(-4.0, 4.0, 1001)
    x, y = rng.normal(size=n), rng.normal(size=n)
    ex, ey = np.linspace(-4.0, 4.0, 257), np.linspace(-4.0, 4.0, 257)
    # encode: run-heavy mask (the compressible case WAH exists for);
    # decode/count: literal-heavy words, where per-word bit extraction
    # is the hot loop
    mask = np.repeat(rng.random(max(n // 31, 1)) < 0.5, 31)[:n]
    dense = rng.random(n) < 0.5
    words = K.wah_encode(dense)
    pool = rng.normal(size=min(n, 1 << 16))
    splitters = np.sort(rng.normal(size=63))
    keys = rng.normal(size=n)
    buckets = K.partition_rows(keys, splitters)
    rows = rng.normal(size=(n // 8, 4))
    row_buckets = np.asarray(buckets[: n // 8])
    side = max(int(round((n // 16) ** (1 / 3))), 4)
    piece = rng.normal(size=(side, side, side))
    pieces = [((i * side, 0, 0), piece) for i in range(4)]
    # particle labels as the sample sort meets them: ~10 % carried by two rows
    labels = rng.permutation(n).astype(float)
    labels[: n // 10] = labels[-(n // 10) :]
    table = rng.normal(size=(n // 8, 8))
    return {
        "histogram1d": (values, edges),
        "histogram2d": (x, y, ex, ey),
        "histogram_cells": ((x, y), (ex, ey)),
        "wah_encode": (mask,),
        "wah_decode": (words, dense.size),
        "wah_count": (words,),
        "select_splitters": (pool, 64),
        "partition_rows": (keys, splitters),
        "group_rows": (rows, row_buckets),
        "stable_order": (labels,),
        "column_minmax": (table,),
        "paste_pieces": ((4 * side, side, side), np.float64, pieces, (0, 0, 0)),
    }


def bench_kernels(n: int = 1_000_000) -> dict:
    """Time every kernel against its reference; guards are the speedups.

    The ``speedup:*`` guards (``NAIVE`` body vs production body) are
    ratio metrics compared against the committed baseline.
    """
    cases = _kernel_cases(n, np.random.default_rng(11))
    results: dict[str, dict] = {}
    guards: dict[str, float] = {}
    for name, naive in sorted(K.NAIVE.items()):
        args, fast = cases[name], getattr(K, name)
        t_naive = _best_of(lambda: naive(*args))
        t_vec = _best_of(lambda: fast(*args))
        speedup = t_naive / max(t_vec, 1e-9)
        results[name] = {
            "naive_seconds": t_naive,
            "vectorized_seconds": t_vec,
            "speedup": speedup,
        }
        guards[f"speedup:{name}"] = speedup
    return {"bench": "kernels", "n": n, "kernels": results, "guards": guards}


# ---------------------------------------------------------------------
# sidecars + regression guard
# ---------------------------------------------------------------------

def write_record(name: str, record: dict, out_dir: Path) -> Path:
    """Write one ``BENCH_<name>.json`` sidecar; returns its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def default_baseline_dir() -> Path:
    """The committed baseline directory (benchmarks/perf/baselines)."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / "perf" / "baselines"


def compare(record: dict, baseline: dict) -> list[str]:
    """Regressions of *record* against *baseline* (empty when clean).

    Only ``guards`` entries present in the *baseline* are enforced: a
    guard regresses when it falls more than :data:`TOLERANCE` below the
    baseline value.  Guards are ratios measured within one process, so
    the comparison is host-speed independent.
    """
    problems = []
    base_guards = baseline.get("guards", {})
    cur_guards = record.get("guards", {})
    for key, base_val in base_guards.items():
        cur = cur_guards.get(key)
        if cur is None:
            problems.append(f"guard {key!r} missing from current run")
            continue
        floor = base_val * (1.0 - TOLERANCE)
        if cur < floor:
            problems.append(
                f"guard {key!r} regressed: {cur:.3g} < floor {floor:.3g} "
                f"(baseline {base_val:.3g}, tolerance {TOLERANCE:.0%})"
            )
    return problems


def baseline_dir(arg: str) -> Path:
    """A ``--baseline`` value as a directory; ``default`` is the committed one."""
    return default_baseline_dir() if arg == "default" else Path(arg)


def guard_record(
    name: str, record: dict, out_dir: Path, baseline: Path | None = None
) -> list[str]:
    """Write the sidecar, print its guards, compare against *baseline*.

    Returns the regressions: none when *baseline* is ``None`` or holds
    no ``BENCH_<name>.json``.
    """
    path = write_record(name, record, out_dir)
    print(f"[perf] {name}: wrote {path}")
    for key, val in sorted(record["guards"].items()):
        print(f"[perf]   {key} = {val:.3g}")
    if baseline is None:
        return []
    base_path = baseline / path.name
    if not base_path.exists():
        print(f"[perf]   no baseline at {base_path}; skipping guard")
        return []
    problems = compare(record, json.loads(base_path.read_text()))
    for p in problems:
        print(f"[perf]   REGRESSION {p}")
    return problems


@dataclass
class Bench:
    """One benchmark group.

    ``add_arguments(parser)`` declares the group's flags and
    ``run(**flags)`` turns them into the record; ``render(record)``
    formats it for a terminal; ``failed(record)`` is true for a record
    that is wrong whatever the baseline says.
    """

    name: str
    run: Callable[..., dict]
    add_arguments: Callable[[argparse.ArgumentParser], None] | None = None
    render: Callable[[dict], str] | None = None
    failed: Callable[[dict], bool] | None = None


def _lazy(target: str) -> Callable:
    """``"module:attr"`` imported when first called: listing a bench
    here must not load the subsystem it measures."""
    return lambda *args, **kw: pkgutil.resolve_name(target)(*args, **kw)


def _kernels_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n", type=int, default=1_000_000, help="kernel benchmark element count (default 1M)"
    )


BENCHES: dict[str, Bench] = {
    b.name: b
    for b in (
        Bench("kernels", bench_kernels, _kernels_arguments),
        Bench(
            "query",
            _lazy("repro.serve.bench:bench_query"),
            _lazy("repro.serve.bench:add_arguments"),
            _lazy("repro.serve.bench:render"),
        ),
        Bench(
            "stream",
            _lazy("repro.stream.bench:bench_stream"),
            _lazy("repro.stream.bench:add_arguments"),
            _lazy("repro.stream.bench:render"),
            _lazy("repro.stream.bench:failed"),
        ),
        Bench(
            "chaos_matrix",
            _lazy("repro.scenarios.runner:sweep"),
            _lazy("repro.scenarios.runner:sweep_arguments"),
            _lazy("repro.scenarios.runner:sweep_render"),
            _lazy("repro.scenarios.runner:sweep_failed"),
        ),
    )
}


def _parser(prog: str, bench: Bench | None = None) -> argparse.ArgumentParser:
    """The flags every bench takes, plus *bench*'s own."""
    ap = argparse.ArgumentParser(
        prog=prog,
        description=f"benchmark groups: {', '.join(BENCHES)}; each writes a "
        "BENCH_<name>.json sidecar and can be guarded against a baseline",
    )
    ap.add_argument("--out", type=Path, default=Path("."), help="sidecar output directory")
    ap.add_argument(
        "--baseline", type=baseline_dir, default=None,
        help="baseline dir to guard against (use 'default' for the "
        "committed benchmarks/perf/baselines)",
    )
    if bench is not None and bench.add_arguments is not None:
        bench.add_arguments(ap)
    return ap


def run_benches(names: list[str], argv: list[str] | None, prog: str | None = None) -> int:
    """Run the named benches; returns the process exit code.

    Per bench: run → render → :func:`guard_record` → ``failed``, which
    is consulted on every path.  Every bench parses the whole of *argv*
    with its own parser before anything runs, so a flag must be known
    to each bench it is given to.
    """
    benches = [BENCHES[n] for n in names]
    parsed = [vars(_parser(prog or f"repro perf {b.name}", b).parse_args(argv)) for b in benches]
    nbad = 0
    for bench, flags in zip(benches, parsed, strict=True):
        out, baseline = flags.pop("out"), flags.pop("baseline")
        record = bench.run(**flags)
        if bench.render is not None:
            print(bench.render(record))
        nbad += len(guard_record(bench.name, record, out, baseline))
        if bench.failed is not None and bench.failed(record):
            print(f"[perf]   FAILED {bench.name}: the record is wrong on its own terms")
            nbad += 1
    if nbad:
        print(f"[perf] FAILED: {nbad} problem(s)")
        return 1
    print("[perf] all guards clean")
    return 0


def main(argv: list[str] | None = None) -> int:
    """``repro perf [name ...] [flags]``: no name (or ``all``) runs every bench."""
    argv = list(sys.argv[1:] if argv is None else argv)
    names = list(takewhile(lambda a: a in (*BENCHES, "all"), argv))
    flags = argv[len(names):]
    if not names or "all" in names:
        names = list(BENCHES)
    if len(names) > 1:
        # --help and shared-flag errors are reported once, not per bench
        _parser("repro perf [name ...]").parse_known_args(flags)
    return run_benches(list(dict.fromkeys(names)), flags)


#: ``repro serve`` / ``repro stream``: one bench under its own command name
serve_main = partial(run_benches, ["query"], prog="repro serve")
stream_main = partial(run_benches, ["stream"], prog="repro stream")
