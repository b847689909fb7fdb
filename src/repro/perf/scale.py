"""Weak-scaling benchmark: the event engine at Jaguar-scale rank counts.

PreDatA's evaluation regime is 10k–100k+ MPI ranks (§V.B); the
simulation only reproduces it if the discrete-event core survives that
many concurrent rank processes.  :func:`bench_scale` drives a synthetic
but representative staging workload — per-node applications cycling
through communication phases while every rank's fetch admission goes
through :meth:`~repro.core.scheduler.MovementScheduler.wait_clear` —
at 10k/50k/100k ranks and records events/second per point.

Each point also records a *fingerprint* (sha256 over final simulated
time, the per-rank visible-seconds array, and the scheduler's deferral
counters).  The committed ``BENCH_scale.json`` is the reference for
those simulated fields: ``benchmarks/perf/test_perf_scale.py`` pins
them to the committed values exactly; events/second and the
weak-scaling ratio are host-speed numbers that test records and does
not compare.
"""

from __future__ import annotations

import hashlib
import struct
import time
from typing import Generator, Iterable, Optional

import numpy as np

__all__ = ["bench_scale", "DEFAULT_RANKS"]

#: default weak-scaling points (MPI rank counts)
DEFAULT_RANKS = (10_000, 50_000, 100_000)


#: comm-phase cycles per process, MPI ranks per node, RNG seed (echoed
#: in the record; the committed fingerprints were recorded with these)
CYCLES = 2
RANKS_PER_NODE = 128
SEED = 13


def _run_point(nranks: int) -> dict:
    """One scale point; returns timing + fingerprint inputs."""
    from repro.core.scheduler import MovementScheduler
    from repro.sim.engine import Engine

    nnodes = (nranks + RANKS_PER_NODE - 1) // RANKS_PER_NODE
    rng = np.random.default_rng(SEED)
    # deterministic per-node comm-phase shapes and per-rank start jitter
    comm_len = np.round(0.5 + rng.random(nnodes), 6)
    gap_len = np.round(0.5 + rng.random(nnodes), 6)
    jitter = np.round(rng.random(nranks) * 0.25, 6)

    eng = Engine()
    sched = MovementScheduler(eng, max_defer=1.0)
    visible = np.zeros(nranks)  # per-rank deferred seconds

    def app(node: int) -> Generator:
        for _ in range(CYCLES):
            sched.enter_comm_phase(node)
            yield eng.timeout(comm_len[node].item())
            sched.exit_comm_phase(node)
            yield eng.timeout(gap_len[node].item())

    def rank_proc(rank: int) -> Generator:
        node = rank // RANKS_PER_NODE
        for _ in range(CYCLES):
            yield eng.timeout(jitter[rank].item())
            deferred = yield from sched.wait_clear(node)
            visible[rank] += deferred

    t0 = time.perf_counter()
    for node in range(nnodes):
        eng.process(app(node), name=f"app-{node}")
    for rank in range(nranks):
        eng.process(rank_proc(rank), name=f"rank-{rank}")
    eng.run()
    elapsed = time.perf_counter() - t0

    h = hashlib.sha256()
    h.update(struct.pack("<d", eng.now))
    h.update(visible.tobytes())
    h.update(struct.pack("<q", sched.deferred_fetches))
    h.update(struct.pack("<d", sched.total_defer_seconds))
    return {
        "events": eng._seq,
        "seconds": elapsed,
        "sim_now": eng.now,
        "deferred_fetches": sched.deferred_fetches,
        "total_defer_seconds": sched.total_defer_seconds,
        "fingerprint": h.hexdigest(),
    }


def bench_scale(ranks: Optional[Iterable[int]] = None) -> dict:
    """Weak-scaling sweep.

    ``guards`` holds absolute events/second at the largest point and
    the weak-scaling throughput ratio largest/smallest: host-speed
    numbers, recorded for humans.
    """
    rank_points = sorted(dict.fromkeys(int(r) for r in (ranks or DEFAULT_RANKS)))
    points: dict[str, dict] = {}
    for nranks in rank_points:
        point = _run_point(nranks)
        point["events_per_sec"] = point["events"] / max(point["seconds"], 1e-9)
        points[str(nranks)] = point
    lo, hi = str(rank_points[0]), str(rank_points[-1])
    eps_hi = points[hi]["events_per_sec"]
    guards = {
        f"events_per_sec_{hi}": eps_hi,
        "weak_scaling_ratio": eps_hi / max(points[lo]["events_per_sec"], 1e-9),
    }
    return {
        "bench": "scale",
        "ranks": rank_points,
        "cycles": CYCLES,
        "ranks_per_node": RANKS_PER_NODE,
        "seed": SEED,
        "points": points,
        "guards": guards,
    }
