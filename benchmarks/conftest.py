"""Shared settings for the figure benchmarks.

Every benchmark runs its experiment exactly once (simulated runs are
deterministic; repeating them only re-measures host speed), prints the
paper's series, and asserts the paper's *shape* claims: who wins, by
roughly what factor, and where crossovers fall.  The figure claims live
in ``repro.experiments.claims``; ``test_claims.py`` checks them.

Each ``once``-driven benchmark also emits a ``BENCH_<name>.json``
sidecar — simulated seconds, host wall seconds, interconnect bytes
moved, and the experiment's result series — which CI uploads as an
artifact so run-to-run performance drift is diffable across commits.
Set ``BENCH_DIR`` to redirect the sidecars (default: current
directory).
"""

import dataclasses
import json
import os
import time
from pathlib import Path

import pytest

from repro.machine import network as _network


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark *fn* with a single round/iteration."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)


def _jsonable(v):
    """Best-effort JSON projection of one result row / value."""
    if isinstance(v, (bool, int, float, str, type(None))):
        return v
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return {
            f.name: _jsonable(getattr(v, f.name))
            for f in dataclasses.fields(v)
            if isinstance(getattr(v, f.name), (bool, int, float, str, type(None)))
        }
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        rows = [_jsonable(x) for x in v]
        return [r for r in rows if r is not None]
    return None  # engines, files, arrays: not part of the sidecar


def _bench_name(node_name: str) -> str:
    # "test_chaos_recovery" -> "chaos_recovery"; "test_full_rank[fig8]" ->
    # "full_rank_fig8"; a claims run is named by itself: "test_claims[fig8_gtc]" -> "fig8_gtc"
    name = node_name.removeprefix("test_claims[").removeprefix("test_")
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in name).rstrip("_")


def write_bench_json(name: str, record: dict) -> Path:
    out_dir = Path(os.environ.get("BENCH_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture
def once(benchmark, request):
    def runner(fn, *args, **kwargs):
        mark = _network.registry_mark()
        t0 = time.perf_counter()
        result = run_once(benchmark, fn, *args, **kwargs)
        wall = time.perf_counter() - t0
        nets = _network.live_networks(mark)
        record = {
            "name": request.node.name,
            "wall_seconds": wall,
            "sim_seconds": max((n.env.now for n in nets), default=0.0),
            "bytes_moved": sum(n.total_bytes() for n in nets),
            "simulations": len(nets),
            "series": _jsonable(result),
        }
        write_bench_json(_bench_name(request.node.name), record)
        return result

    return runner
