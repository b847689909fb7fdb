"""Micro-benchmarks for the hot-path layer + regression guard.

Benchmark groups, one ``BENCH_*.json`` sidecar each:

- :func:`bench_kernels` — every registered kernel, ``naive`` vs
  ``vectorized``, on adversarially dense inputs (default 1M elements);
- :func:`bench_ffs` — FFS packing, allocate-per-step ``encode`` vs
  zero-copy ``encode_into`` with a warm :class:`~repro.ffs.PackBuffer`;
- :func:`repro.perf.scale.bench_scale` — 10k/50k/100k-rank weak
  scaling of the whole engine + scheduler stack.

Each record carries a ``guards`` dict of *machine-portable* ratio
metrics (fast path relative to the reference path, measured in the same
process on the same host).  :func:`compare` fails a run when any guard
falls more than ``tolerance`` (default 20 %) below the committed
baseline in ``benchmarks/perf/baselines/`` — absolute wall seconds are
recorded for humans but never compared, so the guard is stable across
host speeds.

``python -m repro perf`` drives everything from the command line.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.perf import kernels as K
from repro.perf.registry import REGISTRY

__all__ = [
    "bench_kernels",
    "bench_ffs",
    "compare",
    "write_record",
    "default_baseline_dir",
    "main",
]

#: kernels whose vectorized speedup is an acceptance criterion
HOT_KERNELS = ("histogram1d", "histogram2d", "wah_encode")


def _best_of(fn: Callable[[], Any], repeat: int = 3) -> float:
    """Best wall time of *repeat* calls (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
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
    return {
        "histogram1d": (values, edges),
        "histogram2d": (x, y, ex, ey),
        "wah_encode": (mask,),
        "wah_decode": (words, dense.size),
        "wah_count": (words,),
        "select_splitters": (pool, 64),
        "partition_rows": (keys, splitters),
        "group_rows": (rows, row_buckets),
        "paste_pieces": ((4 * side, side, side), np.float64, pieces, 0),
    }


def bench_kernels(n: int = 1_000_000, repeat: int = 3, seed: int = 11) -> dict:
    """Time every kernel in both variants; guards are the speedups.

    The ``speedup:*`` guards (naive vs vectorized) are ratio metrics
    compared against the committed baseline.
    """
    cases = _kernel_cases(n, np.random.default_rng(seed))
    results: dict[str, dict] = {}
    guards: dict[str, float] = {}
    for name in REGISTRY.names():
        args = cases[name]
        t_naive = _best_of(lambda: REGISTRY.get(name, "naive")(*args), repeat)
        t_vec = _best_of(lambda: REGISTRY.get(name, "vectorized")(*args), repeat)
        speedup = t_naive / max(t_vec, 1e-9)
        results[name] = {
            "naive_seconds": t_naive,
            "vectorized_seconds": t_vec,
            "speedup": speedup,
        }
        guards[f"speedup:{name}"] = speedup
    return {"bench": "kernels", "n": n, "kernels": results, "guards": guards}


def bench_ffs(
    nelems: int = 1_000_000, nfields: int = 4, repeat: int = 5, seed: int = 12
) -> dict:
    """Allocate-per-step ``encode`` vs zero-copy ``encode_into``."""
    from repro.ffs import Field, PackBuffer, Schema, encode, encode_into

    rng = np.random.default_rng(seed)
    per = nelems // nfields
    schema = Schema(
        "bench", tuple(Field(f"f{i}", "<f8", (-1,)) for i in range(nfields))
    )
    values = {f"f{i}": rng.normal(size=per) for i in range(nfields)}
    nbytes = sum(v.nbytes for v in values.values())
    # warm the allocator until large-block reuse kicks in (glibc adapts
    # its mmap threshold over several alloc/free cycles): the guard
    # should compare steady-state packing, not first-touch page faults
    for _ in range(8):
        encode(schema, values)
    t_bytes = _best_of(lambda: encode(schema, values), repeat)
    scratch = PackBuffer()
    encode_into(schema, values, scratch)  # warm the scratch to capacity
    grows_warm = scratch.grows
    t_zero = _best_of(lambda: encode_into(schema, values, scratch), repeat)
    ratio = t_bytes / max(t_zero, 1e-9)
    return {
        "bench": "ffs",
        "payload_bytes": nbytes,
        "encode_seconds": t_bytes,
        "encode_into_seconds": t_zero,
        "encode_mb_per_s": nbytes / 1e6 / max(t_bytes, 1e-9),
        "encode_into_mb_per_s": nbytes / 1e6 / max(t_zero, 1e-9),
        "scratch_grows_after_warmup": scratch.grows - grows_warm,
        "guards": {
            "speedup:encode_into": ratio,
            "no_growth_after_warmup": 1.0
            if scratch.grows == grows_warm
            else 0.0,
        },
    }


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


def compare(record: dict, baseline: dict, tolerance: float = 0.2) -> list[str]:
    """Regressions of *record* against *baseline* (empty when clean).

    Only ``guards`` entries present in the *baseline* are enforced: a
    guard regresses when it falls more than ``tolerance`` below the
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
        floor = base_val * (1.0 - tolerance)
        if cur < floor:
            problems.append(
                f"guard {key!r} regressed: {cur:.3g} < floor {floor:.3g} "
                f"(baseline {base_val:.3g}, tolerance {tolerance:.0%})"
            )
    return problems


def _bench_query() -> dict:
    # lazy: repro.serve pulls in repro.query/operators, which must not
    # load just because the perf module was imported
    from repro.serve.bench import bench_query

    return bench_query()


def _bench_stream() -> dict:
    # lazy for the same reason: repro.stream pulls in the machine and
    # dataspaces layers
    from repro.stream.bench import bench_stream

    return bench_stream()


def _bench_scale(ranks: Optional[list[int]] = None) -> dict:
    # lazy: repro.perf.scale pulls in the engine and scheduler layers
    from repro.perf.scale import bench_scale

    return bench_scale(ranks=ranks)


_BENCHES: dict[str, Callable[..., dict]] = {
    "kernels": bench_kernels,
    "ffs": bench_ffs,
    "query": _bench_query,
    "stream": _bench_stream,
    "scale": _bench_scale,
}


def main(argv: Optional[list[str]] = None) -> int:
    """CLI: run benchmarks, write sidecars, optionally guard vs baseline."""
    ap = argparse.ArgumentParser(
        prog="repro perf", description="hot-path micro-benchmarks"
    )
    ap.add_argument(
        "benches", nargs="*", choices=[*_BENCHES, "all"], default=["all"],
        help="benchmark groups to run (default: all)",
    )
    ap.add_argument(
        "--out", type=Path, default=Path("."), help="sidecar output directory"
    )
    ap.add_argument(
        "--n", type=int, default=1_000_000,
        help="kernel benchmark element count (default 1M)",
    )
    ap.add_argument(
        "--scale-ranks", type=int, nargs="+", default=None, metavar="N",
        help="weak-scaling rank counts (default 10000 50000 100000)",
    )
    ap.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline dir to guard against (use 'default' for the "
        "committed benchmarks/perf/baselines)",
    )
    ap.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed fractional guard regression (default 0.2)",
    )
    args = ap.parse_args(argv)
    names = list(_BENCHES) if "all" in args.benches else list(dict.fromkeys(args.benches))
    failures = []
    for name in names:
        if name == "kernels":
            record = _BENCHES[name](args.n)
        elif name == "scale":
            record = _BENCHES[name](args.scale_ranks)
        else:
            record = _BENCHES[name]()
        path = write_record(name, record, args.out)
        print(f"[perf] {name}: wrote {path}")
        for key, val in sorted(record["guards"].items()):
            print(f"[perf]   {key} = {val:.3g}")
        if args.baseline is not None:
            base_dir = (
                default_baseline_dir()
                if str(args.baseline) == "default"
                else args.baseline
            )
            base_path = base_dir / f"BENCH_{name}.json"
            if not base_path.exists():
                print(f"[perf]   no baseline at {base_path}; skipping guard")
                continue
            problems = compare(
                record, json.loads(base_path.read_text()), args.tolerance
            )
            for p in problems:
                print(f"[perf]   REGRESSION {p}")
            failures.extend(problems)
    if failures:
        print(f"[perf] FAILED: {len(failures)} regression(s)")
        return 1
    print("[perf] all guards clean")
    return 0
