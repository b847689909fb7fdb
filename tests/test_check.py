"""Verification subsystem: invariant checker + fingerprints + traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.check import (
    Checker,
    InvariantViolation,
    ScheduleTrace,
    digest_value,
    minimized_trace_diff,
    result_fingerprint,
    run_workload,
)
from repro.check.workloads import OPERATOR_KINDS


# -- checker unit behaviour -------------------------------------------------


def test_checker_clean_ledger_verifies():
    chk = Checker()
    chk.on_packed((0, 0), 100.0, 5)
    chk.on_fetched((0, 0), 100.0)
    chk.on_mapped((0, 0), 100.0)
    chk.on_committed((0, 0))
    assert chk.violations() == []
    chk.verify()


def test_checker_lost_chunk_detected():
    chk = Checker()
    chk.on_packed((0, 0), 100.0, 5)
    broken = chk.violations()
    assert any("never mapped" in v for v in broken)
    assert any("byte ledger" in v for v in broken)
    with pytest.raises(InvariantViolation):
        chk.verify()


def test_checker_double_disposition_flagged_without_faults():
    chk = Checker()
    chk.on_packed((0, 0), 100.0, 5)
    chk.on_mapped((0, 0), 100.0)
    chk.on_mapped((0, 0), 100.0)
    assert any("disposed 2x" in v for v in chk.violations())


def test_checker_faults_relax_exactly_once():
    chk = Checker()
    chk.on_packed((0, 0), 100.0, 5)
    chk.on_mapped((0, 0), 100.0)
    chk.on_mapped((0, 0), 100.0)
    chk.on_restart(1, 0)
    assert chk.perturbed
    assert chk.violations() == []


def test_checker_unpacked_map_flagged():
    chk = Checker()
    chk.on_mapped((3, 1), 50.0)
    assert any("never packed" in v for v in chk.violations())


def test_checker_credit_leak_detected():
    chk = Checker()
    chk.on_credit_granted((0, 0), 100.0, 2)
    assert any("credit ledger" in v for v in chk.violations())
    chk.on_credit_released((0, 0), 2)
    assert chk.violations() == []


def test_checker_comm_window_admission_flagged():
    chk = Checker()
    chk.on_movement_admitted(4, in_phase=True, forced=False)
    assert any("communication window" in v for v in chk.violations())
    # the max_defer anti-starvation override is sanctioned
    chk2 = Checker()
    chk2.on_movement_admitted(4, in_phase=True, forced=True)
    assert chk2.violations() == []


def test_checker_degraded_disposition_counts():
    chk = Checker()
    chk.on_packed((0, 0), 100.0, 5)
    chk.on_degraded((0, 0), 100.0)
    assert chk.violations() == []


# -- checker on live pipelines ---------------------------------------------


def test_clean_pipeline_passes_invariants():
    chk = Checker()
    run = run_workload("histogram", seed=2, check=chk)
    assert chk.packed, "checker saw no packing"
    assert sum(chk.mapped.values()) == len(chk.packed)
    chk.verify(run.predata)


def test_scheduled_runs_record_admissions():
    chk = Checker()
    run_workload("minmax", seed=1, check=chk)
    assert len(chk.admissions) == len(chk.packed)
    assert chk.forced_admissions == 0


def test_flow_run_credit_ledger_drains():
    from repro.flow import FlowConfig

    chk = Checker()
    run = run_workload(
        "sort", seed=3, check=chk, flow=FlowConfig(pool_bytes=1e9)
    )
    assert chk.credit_grants == len(chk.packed)
    assert chk.credit_releases == chk.credit_grants
    chk.verify(run.predata)


def test_end_state_names_what_the_ledgers_still_hold():
    """The live end-state checks: bytes a drained run left in a credit
    bank, a buffer pool or a staging node's memory ledger are each
    reported against the ledger that holds them."""
    from repro.flow import FlowConfig

    chk = Checker()
    run = run_workload("sort", seed=3, check=chk, flow=FlowConfig(pool_bytes=1e9))
    flow, machine = run.predata.flow, run.machine
    assert chk.violations(run.predata) == []
    node_id = machine.staging_node_ids[0]
    flow.banks[0].force_grant((7, 0), 4096.0)  # a grant nobody releases
    # a chunk nobody released: its bytes stay in the pool and on the node
    run.engine.process(flow.pools[node_id].acquire((0, 7, 0), 2048.0))
    run.engine.run()
    assert chk.violations(run.predata) == [
        "credit ledger: flow banks still hold 4096 B at drain",
        f"memory ledger: buffer pool of node {node_id} still holds 2048 B at drain",
        f"memory ledger: staging node {node_id} ledger reads 2048 B at drain (expected 0)",
    ]
    with pytest.raises(InvariantViolation, match="3 pipeline invariant"):
        chk.verify(run.predata)


def test_end_state_names_a_compute_side_buffer_nobody_fetched():
    """A dump written after the staging area served its last step stays
    in its compute-side buffer; the end-state check counts it."""
    from repro.check.workloads import particle_step
    from repro.mpi import World

    chk = Checker()
    run = run_workload("minmax", seed=2, check=chk)
    assert chk.violations(run.predata) == []
    late = World(run.engine, run.machine.network, [0], node_lookup=run.machine.node)

    def writer(comm):
        yield from run.predata.transport.write_step(comm, particle_step(0, 8, 40, step=1))

    late.spawn(writer)
    run.engine.run()
    assert (
        "memory ledger: 1 compute-side buffer(s) never released at drain"
        in chk.violations(run.predata)
    )


def test_chaos_run_passes_invariants_under_faults():
    from repro.experiments.chaos import run_once

    chk = Checker()
    run = run_once(check=chk)
    assert run.complete
    assert chk.faults, "injector fired no fault"
    assert chk.perturbed
    chk.verify(run.predata)


# -- oracle inputs ----------------------------------------------------------


def test_workload_inputs_are_the_arrays_themselves_and_stay_intact():
    """Compute-side operators rebind a step's variables; the captured
    reference is the caller's array, untouched and still writable."""
    from repro.check.workloads import particle_step

    steps = {r: particle_step(r, 4, 40, scale=10.0) for r in range(4)}
    before = {r: steps[r].values["electrons"].copy() for r in steps}
    run = run_workload("filter", nprocs=4, make_step=lambda rank, s: steps[rank])
    for r in steps:
        data = steps[r].values["electrons"]
        assert run.inputs[(r, 0)]["electrons"] is data
        assert data.flags.writeable and data.shape == (40, 8)
        np.testing.assert_array_equal(data, before[r])


def test_operator_writing_its_input_in_place_fails_loudly(monkeypatch):
    """The write path sees read-only views, so an in-place operator
    cannot silently corrupt the oracles' reference."""
    import repro.check.workloads as workloads
    from repro.core import PreDatAOperator

    class ClampInPlace(PreDatAOperator):
        name = "clamp"

        def partial_calculate(self, step):
            np.clip(step.values["electrons"], -0.5, 0.5, out=step.values["electrons"])

    monkeypatch.setattr(workloads, "make_operators", lambda kind: [ClampInPlace()])
    with pytest.raises(ValueError, match="read-only"):
        run_workload("minmax", nprocs=2)


# -- fingerprints -----------------------------------------------------------


def test_result_fingerprint_stable_across_identical_runs():
    a = run_workload("sort", seed=5)
    b = run_workload("sort", seed=5)
    assert result_fingerprint(a.predata) == result_fingerprint(b.predata)


def test_result_fingerprint_distinguishes_different_inputs():
    a = run_workload("sort", seed=5)
    b = run_workload("sort", seed=6)
    assert result_fingerprint(a.predata) != result_fingerprint(b.predata)


@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_fingerprint_digests_every_operator_result(kind):
    run = run_workload(kind, seed=1)
    # must not raise (every finalize shape is digestible) and be stable
    assert result_fingerprint(run.predata) == result_fingerprint(run.predata)


def test_digest_value_structural_rules():
    assert digest_value(np.arange(4)) == digest_value(np.arange(4))
    assert digest_value(np.arange(4)) != digest_value(np.arange(4).astype(float))
    assert digest_value({"a": 1, "b": 2}) == digest_value({"b": 2, "a": 1})
    assert digest_value((1, 2)) == digest_value([1, 2])
    assert digest_value(None) != digest_value(0)


def test_digest_value_rejects_address_reprs():
    class Opaque:
        pass

    with pytest.raises(TypeError):
        digest_value(Opaque())


# -- schedule traces --------------------------------------------------------


def test_schedule_trace_hash_covers_order():
    t1 = ScheduleTrace()
    t2 = ScheduleTrace()

    class Ev:
        def __init__(self, name):
            self.name = name

    t1.record(1.0, 1, 0, 1, Ev("a"))
    t1.record(1.0, 1, 0, 2, Ev("b"))
    t2.record(1.0, 1, 0, 1, Ev("b"))
    t2.record(1.0, 1, 0, 2, Ev("a"))
    assert t1.schedule_hash != t2.schedule_hash
    assert t1.count == 2


def test_schedule_trace_hash_ignores_sub_and_seq():
    t1 = ScheduleTrace()
    t2 = ScheduleTrace()

    class Ev:
        name = "x"

    t1.record(1.0, 1, 0, 1, Ev())
    t2.record(1.0, 1, 999, 7, Ev())
    assert t1.schedule_hash == t2.schedule_hash


def test_minimized_trace_diff_trims_common_affix():
    a = [(0.0, 1, "a"), (1.0, 1, "b"), (2.0, 1, "c"), (3.0, 1, "d")]
    b = [(0.0, 1, "a"), (1.0, 1, "X"), (2.0, 1, "c"), (3.0, 1, "d")]
    out = minimized_trace_diff(a, b)
    assert "divergence at event #1" in out
    assert "b" in out and "X" in out
    assert "t=3" not in out  # common suffix trimmed
    assert minimized_trace_diff(a, a) == "traces identical"


# ------------------------------------------------------------ the CLI
@pytest.mark.parametrize("argv", [
    ["--fuzz", "0", "--no-oracles", "--no-invariants"],
    ["--fuzz", "-3", "--no-oracles", "--no-invariants"],
    ["--fuzz", "-3"],
    ["--fuzz", "0", "--no-invariants", "--oracle-seeds", ","],
], ids=["no-pillar", "negative-fuzz-alone", "negative-fuzz", "seed-list"])
def test_check_cli_rejects_a_run_that_verifies_nothing(argv, capsys):
    """A usage error exits 2 before anything runs: a check that ran no
    pillar, or a negative fuzz count, may never print PASSED."""
    from repro.check.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "PASSED" not in capsys.readouterr().out


def test_two_fuzz_runs_print_the_same_stdout(capsys):
    """Host seconds go to stderr: a fuzz report's stdout is a function of
    the tree alone, so two runs can be diffed."""
    from repro.check.cli import _run_fuzz

    outs = []
    for _ in range(2):
        assert _run_fuzz(1, "sort")
        captured = capsys.readouterr()
        assert "wall]" in captured.err
        outs.append(captured.out)
    assert "wall" not in outs[0]
    assert outs[0] == outs[1]
