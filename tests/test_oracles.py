"""Differential operator oracles: staged single-pass vs offline numpy."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.check import check_workload, run_differential, run_workload
from repro.check.oracle import ORACLE_SEEDS, OracleResult
from repro.check.workloads import (
    FIELD_KINDS,
    LOCAL_N,
    OPERATOR_KINDS,
    ROWS,
    SCALE,
    WorkloadRun,
    _read_only,
    field_step,
    make_operators,
    particle_step,
)
from repro.core import InComputeNodeRunner
from repro.machine import Machine, TESTING_TINY
from repro.mpi import World
from repro.sim import Engine

SEEDS = (1, 2, 3)
#: compute ranks of ``run_workload``'s default pipeline
NPROCS = 8


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_operator_matches_offline_reference(kind, seed):
    res = check_workload(run_workload(kind, seed=seed))
    assert res.ok, res.detail


def test_run_differential_covers_all_operators():
    results = run_differential()
    assert {r.operator for r in results} == set(OPERATOR_KINDS)
    assert len(results) == len(OPERATOR_KINDS) * len(ORACLE_SEEDS)
    assert all(isinstance(r, OracleResult) for r in results)
    assert all(r.ok for r in results), [str(r) for r in results]


def test_oracle_catches_wrong_results():
    """Corrupting a staged result must flip the oracle to FAIL."""
    run = run_workload("histogram", seed=1)
    results = run.results()
    step0 = results[0]
    owner = next(r for r in sorted(step0) if step0[r] is not None)
    step0[owner]["counts"] = np.array(step0[owner]["counts"]) + 1
    res = check_workload(run)
    assert not res.ok
    assert res.detail


def test_oracle_catches_lost_sort_rows():
    run = run_workload("sort", seed=2)
    results = run.results()
    step0 = results[0]
    rank = sorted(step0)[0]
    bucket = step0[rank]
    if len(bucket) > 1:
        step0[rank] = bucket[:-1]  # drop a row
        res = check_workload(run)
        assert not res.ok


def test_oracle_result_str_format():
    ok = OracleResult("sort", 1, True, "")
    bad = OracleResult("sort", 1, False, "boom")
    assert str(ok).startswith("[PASS]")
    assert str(bad).startswith("[FAIL]")


# ------------------------------------------------- in-compute placement
class _InComputeRun(WorkloadRun):
    """A verification workload whose results come from the in-compute
    runner instead of a staging service."""

    runner = None

    def results(self) -> dict:
        return self.runner.results[self.operators[0].name]


def _run_in_compute(kind: str, seed: int) -> _InComputeRun:
    """``run_workload``'s seeded inputs through ``InComputeNodeRunner``.

    The runner gets read-only views, the oracles the arrays themselves:
    filter, subsample and precision_reduce rebind the step's values, so
    the inputs are captured before the runner sees the step.
    """
    ops = make_operators(kind)
    eng = Engine()
    machine = Machine(eng, NPROCS, 0, spec=TESTING_TINY)
    world = World(
        eng, machine.network, list(range(NPROCS)), name="app",
        node_lookup=machine.node, wire_scale=SCALE,
    )
    run = _InComputeRun(
        kind=kind, seed=seed, engine=eng, machine=machine, predata=None,
        operators=ops, nprocs=NPROCS,
    )
    run.runner = InComputeNodeRunner(machine, ops)

    def main(comm):
        if kind in FIELD_KINDS:
            step = field_step(comm.rank, NPROCS, LOCAL_N, scale=SCALE, seed=seed)
            run.chunks[(comm.rank, 0)] = dict(step.chunks)
        else:
            step = particle_step(comm.rank, NPROCS, ROWS, scale=SCALE, seed=seed)
        run.inputs[(comm.rank, 0)] = step.values
        step = replace(step, values={v: _read_only(a) for v, a in step.values.items()})
        yield from run.runner.run_step(comm, step)

    procs = world.spawn(main)
    eng.run()
    for proc in procs:
        assert proc.triggered, "an in-compute rank never finished"
        if not proc.ok:
            raise proc.value  # e.g. an operator wrote into its read-only input
    return run


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_in_compute_operator_matches_offline_reference(kind, seed):
    """The same operators placed in the compute nodes pass the same
    oracles as the staged pipeline."""
    res = check_workload(_run_in_compute(kind, seed))
    assert res.ok, res.detail
