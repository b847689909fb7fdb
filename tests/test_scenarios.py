"""The adversarial scenario wall (THREATS.md made executable).

Every registered scenario runs against the chaos workload and must
prove, per scenario:

(a) **seeded determinism** — the same seed reproduces the identical
    combined fingerprint, schedule hash, and fired-fault log;
(b) **threat-model survival** — the run completes with zero dump loss
    and every `repro.check` ledger balances (no violations);
(c) **off-state byte-identity** — a harness whose scenarios all have
    zero intensity leaves the run's fingerprint AND executed-schedule
    hash untouched.

Plus: a hypothesis property suite over (scenario, seed, intensity),
the in-process CLI for every name, and a drift check keeping the
THREATS.md scenario table in sync with the registry.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.__main__ import main as repro_main
from repro.check import Checker, ScheduleTrace
from repro.experiments.chaos import fingerprint, run_once
from repro.scenarios import (
    INVARIANTS,
    REGISTRY,
    Scenario,
    ScenarioHarness,
    get,
    make,
    names,
    run_scenarios,
)

SEED = 11
INTENSITY = 0.8


def _run(name: str, *, seed: int = SEED, intensity: float = INTENSITY, **kw):
    return run_scenarios(
        [make(name, seed=seed, intensity=intensity)], seed=seed, fast=True, **kw
    )


@pytest.fixture(scope="module")
def wall():
    """{name: (first result, rerun result)} for every registered scenario."""
    return {name: (_run(name), _run(name)) for name in names()}


# -- the registry itself ----------------------------------------------------
def test_at_least_eight_scenarios_registered():
    assert len(names()) >= 8, names()


def test_every_spec_promises_known_invariants():
    for name in names():
        spec = get(name)
        assert spec.invariants, name
        assert set(spec.invariants) <= set(INVARIANTS), name
        assert spec.threat and spec.summary, name


# -- (b) threat-model survival ---------------------------------------------
def test_every_scenario_completes_with_zero_dump_loss(wall):
    for name, (first, _again) in wall.items():
        assert first.complete, f"{name}: lost steps {first.missing_steps}"


def test_every_scenario_survives_its_promised_invariants(wall):
    for name, (first, _again) in wall.items():
        assert first.violations == [], f"{name}: {first.violations}"
        # the checker genuinely observed the run, not an empty engine
        assert first.checker.packed, f"{name}: checker saw no packing"
        assert first.invariants == get(name).invariants


# -- (a) seeded determinism -------------------------------------------------
def test_same_seed_reproduces_fingerprint_and_schedule(wall):
    for name, (first, again) in wall.items():
        assert first.fingerprint == again.fingerprint, name
        assert first.schedule_hash == again.schedule_hash, name
        assert first.harness.planned == again.harness.planned, name
        assert first.harness.fired == again.harness.fired, name


def test_different_seed_moves_the_schedule():
    """Control: the digest actually sees the seeded choices."""
    a = _run("corrupt-chunk", seed=1)
    b = _run("corrupt-chunk", seed=2)
    assert a.schedule_hash != b.schedule_hash


# -- (c) off-state byte-identity -------------------------------------------
def _traced(**kw):
    sinks = dict(schedule_trace=ScheduleTrace(), check=Checker())
    run = run_once(
        inject=False, make_injector=False,
        logical_ranks=128, rep_ranks=4, nsteps=2, **sinks, **kw,
    )
    return fingerprint(run), sinks["schedule_trace"]


def test_zero_intensity_harness_is_byte_invisible():
    harness = ScenarioHarness(
        [make(n, intensity=0.0) for n in names() if not get(n).needs_regions]
    )
    fp_plain, trace_plain = _traced()
    fp_scen, trace_scen = _traced(scenario_harness=harness)
    assert harness.attached and not harness.active
    assert harness.injector is None, "zero-intensity harness armed an injector"
    assert fp_scen == fp_plain, "zero-intensity harness moved the fingerprint"
    assert trace_scen.count == trace_plain.count
    assert trace_scen.schedule_hash == trace_plain.schedule_hash


# -- scenario behaviour specifics ------------------------------------------
def test_corrupt_chunk_rejected_and_refetched(wall):
    first, _ = wall["corrupt-chunk"]
    assert "fetch_corrupt" in first.fault_kinds
    assert first.fetch_retries >= first.faults_fired > 0
    assert first.complete


def test_withheld_fetch_recovers_via_timeout_only(wall):
    first, _ = wall["withheld-fetch"]
    assert first.fault_kinds == ("fetch_withhold",)
    assert first.fetch_retries > 0
    assert first.complete


def test_withhold_is_distinct_from_drop_in_the_record(wall):
    """The silent non-answer must be distinguishable from the error
    path in the fired log (different fault kinds)."""
    kinds = set(wall["withheld-fetch"][0].fault_kinds)
    assert "fetch_withhold" in kinds and "fetch_drop" not in kinds


def test_hotspot_skew_fires_no_faults_but_reroutes(wall):
    first, _ = wall["hotspot-skew"]
    assert first.faults_fired == 0
    assert not first.checker.perturbed, "skew must keep the checker exact"
    actions = {a for _n, a, _t, _d in first.harness.planned}
    assert actions == {"hotspot_route"}


def test_kitchen_sink_composes_everything(wall):
    first, _ = wall["kitchen-sink"]
    kinds = set(first.fault_kinds)
    assert {"crash", "fs_stall", "degrade_link"} <= kinds, kinds
    assert first.restarts > 0, "the crash must force a step re-execution"
    assert first.complete and first.violations == []


def test_regional_scenarios_request_regions():
    for name in ("regional-partition", "slow-region", "kitchen-sink"):
        assert get(name).needs_regions
        harness = ScenarioHarness([make(name)])
        assert harness.needs_regions


def test_composed_scenarios_share_one_run():
    result = run_scenarios(
        [
            make("corrupt-chunk", seed=SEED),
            make("straggler-producer", seed=SEED),
        ],
        seed=SEED,
        fast=True,
    )
    kinds = set(result.fault_kinds)
    assert {"fetch_corrupt", "degrade_link"} <= kinds
    assert result.complete and result.violations == []


def test_harness_refuses_double_attach(wall):
    harness = wall["corrupt-chunk"][0].harness
    with pytest.raises(RuntimeError):
        harness.attach(None, None, None, nsteps=1)


def test_make_collects_free_form_knobs():
    s = make("bursty-producer", period=0.5, duty=0.25, seed=3)
    assert s.param("period", 0.0) == 0.5
    assert s.param("duty", 0.0) == 0.25
    with pytest.raises(KeyError):
        make("no-such-scenario")
    with pytest.raises(ValueError):
        Scenario(kind="corrupt-chunk", intensity=1.5)


# -- hypothesis property suite ---------------------------------------------
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(sorted(REGISTRY)),
    seed=st.integers(min_value=0, max_value=2**16),
    intensity=st.floats(min_value=0.1, max_value=1.0),
)
def test_any_scenario_any_seed_survives_and_reproduces(name, seed, intensity):
    first = _run(name, seed=seed, intensity=intensity)
    assert first.complete, f"{name}@{seed}: lost {first.missing_steps}"
    assert first.violations == [], f"{name}@{seed}: {first.violations}"
    again = _run(name, seed=seed, intensity=intensity)
    assert first.fingerprint == again.fingerprint
    assert first.schedule_hash == again.schedule_hash


# -- the CLI (through the `python -m repro` dispatcher) ---------------------
def scenarios_cli(argv: list[str]) -> int:
    return repro_main(["scenarios", *argv])


def test_cli_list_runs_clean(capsys):
    assert scenarios_cli(["list"]) == 0
    out = capsys.readouterr().out
    for name in names():
        assert name in out


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_cli_run_every_scenario(name, capsys):
    assert scenarios_cli(["run", name, "--fast", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "violations    : none" in out


def test_cli_sweep_writes_the_matrix(tmp_path, capsys):
    rc = scenarios_cli(
        ["sweep", "corrupt-chunk", "withheld-fetch",
         "--fast", "--repeats", "2", "--out", str(tmp_path)]
    )
    assert rc == 0
    record_path = tmp_path / "BENCH_chaos_matrix.json"
    assert record_path.exists()
    import json

    record = json.loads(record_path.read_text())
    g = record["guards"]
    assert g["complete_fraction"] == 1.0
    assert g["invariant_clean_fraction"] == 1.0
    assert g["determinism_fraction"] == 1.0


# -- THREATS.md drift check -------------------------------------------------
def _threats_table() -> dict[str, tuple[str, ...]]:
    """{scenario: invariants} parsed from the THREATS.md scenario table."""
    text = Path(__file__).resolve().parents[1].joinpath("THREATS.md").read_text()
    rows: dict[str, tuple[str, ...]] = {}
    for line in text.splitlines():
        m = re.match(r"^\| `([a-z-]+)` \|", line)
        if not m:
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 5:
            continue
        inv = cells[3].strip("`")
        rows[m.group(1)] = tuple(i.strip() for i in inv.split(","))
    return rows


def test_threats_md_matches_the_registry():
    table = _threats_table()
    for name in names():
        assert name in table, f"THREATS.md has no row for {name!r}"
        assert table[name] == get(name).invariants, (
            f"THREATS.md invariants for {name!r} drifted from the registry"
        )
    extra = set(table) - set(names())
    assert not extra, f"THREATS.md rows for unregistered scenarios: {extra}"


def test_threats_md_documents_every_invariant():
    text = Path(__file__).resolve().parents[1].joinpath("THREATS.md").read_text()
    for invariant in INVARIANTS:
        assert f"`{invariant}`" in text, f"THREATS.md never defines {invariant!r}"
