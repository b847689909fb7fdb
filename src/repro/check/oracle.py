"""Differential operator oracles.

Every built-in operator runs through the full staged pipeline
(compute-side first pass, allgather aggregation, streamed Map,
shuffle, Reduce, Finalize) on partial per-rank chunks.  The oracle for
each operator recomputes the *same answer the slow way*: an offline
single-process numpy reference over the concatenated global data
captured before the pipeline touched it.  Agreement means the staged
single-pass implementation computed the right physics; disagreement is
a correctness bug, not a scheduling artifact.

:func:`run_differential` runs every oracle on ``seeds`` independently
seeded workloads and returns one :class:`OracleResult` per
(operator, seed) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.check.workloads import OPERATOR_KINDS, WorkloadRun, run_workload

__all__ = ["OracleResult", "check_workload", "run_differential"]


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one operator oracle on one seeded workload."""

    operator: str
    seed: int
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        tag = "PASS" if self.ok else "FAIL"
        msg = f" — {self.detail}" if self.detail and not self.ok else ""
        return f"[{tag}] {self.operator} (seed {self.seed}){msg}"


class _OracleFailure(AssertionError):
    pass


def _fail(msg: str):
    raise _OracleFailure(msg)


def _concat_inputs(run: WorkloadRun, step: int, var: str) -> np.ndarray:
    """Global data: per-rank pristine chunks concatenated in rank order."""
    return np.concatenate(
        [run.inputs[(r, step)][var] for r in range(run.nprocs)], axis=0
    )


def _canon_rows(rows: np.ndarray) -> np.ndarray:
    """Rows in a canonical (lexicographic) order for multiset compare."""
    rows = np.atleast_2d(rows)
    if rows.shape[0] == 0:
        return rows
    order = np.lexsort(rows.T[::-1])
    return rows[order]


def _rows_multiset_equal(a: np.ndarray, b: np.ndarray, what: str) -> None:
    a, b = _canon_rows(a), _canon_rows(b)
    if a.shape != b.shape:
        _fail(f"{what}: shape {a.shape} vs reference {b.shape}")
    if not np.array_equal(a, b):
        _fail(f"{what}: row multiset differs from reference")


def _gather_rows(per_rank: Iterable) -> np.ndarray:
    """Concatenate possibly-empty per-rank row blocks."""
    blocks = [np.atleast_2d(v) for v in per_rank if np.asarray(v).size]
    if not blocks:
        return np.empty((0, 0))
    return np.concatenate(blocks, axis=0)


def _reference_edges(col: np.ndarray, bins: int) -> np.ndarray:
    lo, hi = float(col.min()), float(col.max())
    if lo == hi:
        hi = lo + 1.0
    return np.linspace(lo, hi, bins + 1)


# -- per-operator oracles --------------------------------------------------


def _oracle_minmax(run: WorkloadRun, step: int, results: dict) -> None:
    data = _concat_inputs(run, step, "electrons")
    ref_mins = data.min(axis=0)
    ref_maxs = data.max(axis=0)
    for rank, res in results.items():
        if res is None:
            _fail(f"rank {rank}: minmax result missing")
        if res.count != data.shape[0]:
            _fail(f"rank {rank}: count {res.count} != {data.shape[0]}")
        if not np.allclose(res.mins, ref_mins, rtol=0, atol=0):
            _fail(f"rank {rank}: mins differ from reference")
        if not np.allclose(res.maxs, ref_maxs, rtol=0, atol=0):
            _fail(f"rank {rank}: maxs differ from reference")


def _oracle_histogram(run: WorkloadRun, step: int, results: dict) -> None:
    op = run.operators[0]
    col = _concat_inputs(run, step, "electrons")[:, op.column]
    edges = _reference_edges(col, op.bins)
    ref_counts, _ = np.histogram(col, bins=edges)
    owners = {r: v for r, v in results.items() if v is not None}
    if len(owners) != 1:
        _fail(f"expected exactly one tag-owning rank, got {sorted(owners)}")
    (res,) = owners.values()
    if not np.allclose(res["edges"], edges):
        _fail("bin edges differ from reference linspace")
    if not np.array_equal(res["counts"], ref_counts.astype(np.int64)):
        _fail("histogram counts differ from np.histogram reference")
    if int(res["counts"].sum()) != col.size:
        _fail("histogram does not conserve row count")


def _oracle_histogram2d(run: WorkloadRun, step: int, results: dict) -> None:
    op = run.operators[0]
    data = _concat_inputs(run, step, "electrons")
    cx, cy = op.columns
    ex = _reference_edges(data[:, cx], op.bins[0])
    ey = _reference_edges(data[:, cy], op.bins[1])
    ref, _, _ = np.histogram2d(data[:, cx], data[:, cy], bins=(ex, ey))
    owners = {r: v for r, v in results.items() if v is not None}
    if len(owners) != 1:
        _fail(f"expected exactly one tag-owning rank, got {sorted(owners)}")
    (res,) = owners.values()
    if not (np.allclose(res["edges"][0], ex) and np.allclose(res["edges"][1], ey)):
        _fail("2-D bin edges differ from reference")
    if not np.array_equal(res["counts"], ref.astype(np.int64)):
        _fail("2-D histogram counts differ from np.histogram2d reference")


def _oracle_sort(run: WorkloadRun, step: int, results: dict) -> None:
    op = run.operators[0]
    data = _concat_inputs(run, step, "electrons")
    buckets = [np.atleast_2d(results[r]) for r in sorted(results)]
    _rows_multiset_equal(_gather_rows(buckets), data, "sort output")
    prev_max = -np.inf
    for r, bucket in zip(sorted(results), buckets):
        if bucket.shape[0] == 0:
            continue
        keys = bucket[:, op.key_column]
        if np.any(np.diff(keys) < 0):
            _fail(f"rank {r}: bucket not sorted on key column")
        if keys[0] < prev_max:
            _fail(f"rank {r}: bucket overlaps the previous rank's range")
        prev_max = keys[-1]


def _oracle_bitmap(run: WorkloadRun, step: int, results: dict) -> None:
    op = run.operators[0]
    col = _concat_inputs(run, step, "electrons")[:, op.column]
    edges = _reference_edges(col, op.bins)
    all_values = np.concatenate(
        [np.asarray(results[r].values) for r in sorted(results)]
    )
    if not np.array_equal(np.sort(all_values), np.sort(col)):
        _fail("union of indexed values differs from the input column")
    rng = np.random.default_rng(run.seed + 99)
    for r in sorted(results):
        if not np.allclose(results[r].edges, edges):
            _fail(f"rank {r}: index edges differ from global reference")
    for _ in range(8):
        lo, hi = np.sort(rng.uniform(col.min(), col.max(), size=2))
        got = sum(int(results[r].query(lo, hi).nrows) for r in sorted(results))
        want = int(np.count_nonzero((col >= lo) & (col <= hi)))
        if got != want:
            _fail(f"range query [{lo:.4f}, {hi:.4f}]: {got} rows != {want}")


def _oracle_array_merge(run: WorkloadRun, step: int, results: dict) -> None:
    meta = next(iter(run.chunks.values()))["rho"]
    gdims = tuple(meta.global_dims)
    expected = np.zeros(gdims)
    covered = np.zeros(gdims, dtype=bool)
    for (rank, s), vals in run.inputs.items():
        if s != step:
            continue
        lo = run.chunks[(rank, s)]["rho"].offsets[0]
        chunk = vals["rho"]
        expected[lo : lo + chunk.shape[0]] = chunk
        covered[lo : lo + chunk.shape[0]] = True
    if not covered.all():
        _fail("reference reconstruction incomplete (bad chunk metadata)")
    rebuilt = np.full(gdims, np.nan)
    for r in sorted(results):
        merged = results[r]
        if "rho" not in merged:
            continue
        s_lo, slab = merged["rho"]
        rebuilt[s_lo : s_lo + slab.shape[0]] = slab
    if np.isnan(rebuilt).any():
        _fail("merged slabs do not cover the global array")
    if not np.array_equal(rebuilt, expected):
        _fail("merged global array differs from concatenated chunks")


def _oracle_filter(run: WorkloadRun, step: int, results: dict) -> None:
    op = run.operators[0]
    data = _concat_inputs(run, step, "electrons")
    col = data[:, op.column]
    ref = data[(col >= op.lo) & (col <= op.hi)]
    got = _gather_rows(results[r]["rows"] for r in sorted(results))
    if ref.shape[0] == 0:
        if got.shape[0] != 0:
            _fail(f"filter kept {got.shape[0]} rows, reference kept none")
    else:
        _rows_multiset_equal(got, ref, "filter output")
    for r in sorted(results):
        if results[r]["global_kept"] != ref.shape[0]:
            _fail(
                f"rank {r}: global_kept {results[r]['global_kept']} "
                f"!= {ref.shape[0]}"
            )


def _oracle_subsample(run: WorkloadRun, step: int, results: dict) -> None:
    op = run.operators[0]
    stride = max(round(1.0 / op.fraction), 1)
    ref = np.concatenate(
        [run.inputs[(r, step)]["electrons"][::stride] for r in range(run.nprocs)],
        axis=0,
    )
    got = _gather_rows(results[r]["rows"] for r in sorted(results))
    _rows_multiset_equal(got, ref, "subsample output")
    for r in sorted(results):
        if results[r]["global_rows"] != ref.shape[0]:
            _fail(f"rank {r}: global_rows != {ref.shape[0]}")


def _oracle_precision_reduce(run: WorkloadRun, step: int, results: dict) -> None:
    saved = 0
    for r in range(run.nprocs):
        data = run.inputs[(r, step)]["electrons"]
        if data.dtype == np.float64:
            saved += data.nbytes - data.astype(np.float32).nbytes
    for r in sorted(results):
        if results[r]["global_bytes_saved"] != saved:
            _fail(
                f"rank {r}: global_bytes_saved "
                f"{results[r]['global_bytes_saved']} != {saved}"
            )


_ORACLES = {
    "minmax": _oracle_minmax,
    "histogram": _oracle_histogram,
    "histogram2d": _oracle_histogram2d,
    "sort": _oracle_sort,
    "bitmap": _oracle_bitmap,
    "array_merge": _oracle_array_merge,
    "filter": _oracle_filter,
    "subsample": _oracle_subsample,
    "precision_reduce": _oracle_precision_reduce,
}


def check_workload(run: WorkloadRun) -> OracleResult:
    """Apply the matching oracle to every step of a finished workload."""
    oracle = _ORACLES[run.kind]
    try:
        per_step = run.results()
        if not per_step:
            _fail("pipeline produced no results")
        for step in sorted(per_step):
            oracle(run, step, per_step[step])
    except _OracleFailure as exc:
        return OracleResult(run.kind, run.seed, False, str(exc))
    return OracleResult(run.kind, run.seed, True)


def run_differential(seeds: tuple = (1, 2, 3)) -> list[OracleResult]:
    """Run every oracle on every seed; returns all results (no raise)."""
    return [
        check_workload(run_workload(kind, seed=seed))
        for kind in OPERATOR_KINDS
        for seed in seeds
    ]
