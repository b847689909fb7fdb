"""The multi-tenant jobs layer: fair share, preemption, isolation.

Unit tests cover the share-group carve/borrow/spill mechanics, the
admission gate, the preemption ladder (against a scripted severity
signal), cancel semantics, the per-tenant checker routing and the
tenant-label metrics plumbing.  A hypothesis property drives 2–8
random tenants through one shared fleet and asserts the two headline
guarantees: every tenant's ledger conserves independently, and every
tenant's result fingerprint is byte-identical to its solo run.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import InvariantViolation, MultiTenantChecker, digest_value
from repro.core import PreDatA
from repro.faults import FaultInjector, ResilienceConfig
from repro.flow import FlowConfig
from repro.flow.credits import CreditBank
from repro.jobs import (
    JobManager,
    JobSpec,
    NodeShareGroup,
    PreemptionConfig,
    TenancyConfig,
    isolation_violations,
    jains_index,
    solo_fingerprint,
)
from repro.jobs import manager as manager_module
from repro.jobs.manager import AdmissionGate
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.sim import Engine, SeededTieBreaker

COMMON_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KINDS = ["sort", "histogram", "histogram2d", "array_merge"]


def _manager(nteams, *, config=None, **spec_kw):
    m = JobManager(config or TenancyConfig())
    for i in range(nteams):
        kw = dict(kind=KINDS[i % len(KINDS)], seed=i)
        kw.update(spec_kw)
        m.submit(JobSpec(tenant=f"t{i}", **kw))
    return m


# -- configs -----------------------------------------------------------------


def test_jobspec_validation():
    with pytest.raises(ValueError):
        JobSpec(tenant="")
    with pytest.raises(ValueError):
        JobSpec(tenant="a", nprocs=0)
    with pytest.raises(ValueError):
        JobSpec(tenant="a", weight=0.0)
    with pytest.raises(ValueError):
        PreemptionConfig(resume_severity=0.9, degrade_severity=0.8)
    with pytest.raises(ValueError):
        PreemptionConfig(degrade_severity=0.99, pause_severity=0.9)


def test_submission_rules():
    m = JobManager()
    m.submit(JobSpec(tenant="a"))
    with pytest.raises(ValueError):
        m.submit(JobSpec(tenant="a"))
    with pytest.raises(KeyError):
        m.cancel_at("nobody", 1.0)
    m.start()
    with pytest.raises(RuntimeError):
        m.submit(JobSpec(tenant="b"))
    with pytest.raises(RuntimeError):
        m.start()


# -- fair-share carving --------------------------------------------------------


def test_weighted_carves_split_every_budget():
    """Pool and credit capacities are weight/Σweights of each group."""
    m = JobManager(TenancyConfig(flow=FlowConfig(pool_bytes=1e6)))
    m.submit(JobSpec(tenant="a", weight=1.0, seed=1))
    m.submit(JobSpec(tenant="b", weight=3.0, seed=2))
    m.start()
    assert m.fleet.share("a") == 0.25 and m.fleet.share("b") == 0.75
    flow_a = m.jobs["a"].predata.flow
    flow_b = m.jobs["b"].predata.flow
    for node_id, group in m.fleet.node_groups.items():
        pool_a, pool_b = flow_a.pools[node_id], flow_b.pools[node_id]
        assert pool_a.capacity == pytest.approx(group.capacity * 0.25)
        assert pool_b.capacity == pytest.approx(group.capacity * 0.75)
        assert group.members() == sorted(
            [pool_a, pool_b], key=lambda p: p.capacity
        )
        # carve watermarks are private: relative to the carve, not the node
        assert pool_a.high == pytest.approx(0.85 * pool_a.capacity)
    for rank, group in m.fleet.credit_groups.items():
        bank_a, bank_b = flow_a.banks[rank], flow_b.banks[rank]
        assert bank_a.capacity == pytest.approx(group.capacity * 0.25)
        assert bank_b.capacity == pytest.approx(group.capacity * 0.75)
    m.env.run()  # drain so the run stays a valid pipeline


def test_share_group_borrow_and_pump_order():
    """Idle carve is borrowable up to the physical bound; pumps are
    deterministic (tenant order) and exclude the releasing member."""

    class Member:
        def __init__(self):
            self.used = 0.0
            self.group = None
            self.pumped = []

        def _pump(self):
            self.pumped.append(True)

    group = NodeShareGroup(0, 100.0, FlowConfig())
    a, b = Member(), Member()
    group.register("b", b)  # registration order != tenant order
    group.register("a", a)
    assert group.members() == [a, b]  # sorted by tenant
    a.used = 70.0
    assert group.used == 70.0
    assert group.can_borrow(b, 30.0)  # fits the physical budget exactly
    assert not group.can_borrow(b, 30.1)
    group.pump(exclude=a)
    assert b.pumped and not a.pumped


def test_spill_sheds_borrowed_bytes_only_when_siblings_queue():
    """The global spill rule: over-carve + a queued sibling => spill;
    a tenant within its carve is never told to spill for a neighbor."""
    m = JobManager(TenancyConfig(flow=FlowConfig(pool_bytes=100.0)))
    m.submit(JobSpec(tenant="a", seed=1))
    m.submit(JobSpec(tenant="b", seed=2))
    m.start()
    node_id = next(iter(m.fleet.node_groups))
    pool_a = m.jobs["a"].predata.flow.pools[node_id]
    pool_b = m.jobs["b"].predata.flow.pools[node_id]
    assert pool_a.capacity == pytest.approx(50.0)
    # borrowed bytes, no sibling queued: keep them (work conservation)
    pool_a._used = 60.0
    assert not pool_a._should_spill()
    # sibling starts queueing for the same physical budget: shed
    pool_b._waiters.append([m.env.event(), 10.0, 0.0])
    assert pool_a._should_spill()
    # within-carve usage never spills for a neighbor's burst
    pool_a._used = 40.0
    assert not pool_a._should_spill()
    pool_a._used = 0.0
    pool_b._waiters.clear()
    m.env.run()


def test_credit_source_is_key_minus_step():
    """Satellite fix: the fresh-source rule must see (tenant, rank),
    not the bare tenant — one source per producer, not per tenant."""
    assert CreditBank._source_of(("t0", 3, 7)) == ("t0", 3)
    assert CreditBank._source_of((3, 7)) == 3  # single-tenant keys unchanged
    assert CreditBank._source_of("opaque") == "opaque"
    # two ranks of one tenant are distinct sources; same rank of two
    # tenants are distinct sources
    assert CreditBank._source_of(("t0", 1, 5)) != CreditBank._source_of(("t0", 2, 5))
    assert CreditBank._source_of(("t0", 1, 5)) != CreditBank._source_of(("t1", 1, 5))


# -- admission gate + preemption ladder ---------------------------------------


def test_admission_gate_holds_until_reopened():
    env = Engine()
    gate = AdmissionGate(env)
    order = []

    def writer(rank):
        yield from gate.wait(rank)
        order.append((env.now, rank))

    def control():
        yield env.timeout(5.0)
        gate.open()

    gate.close()
    gate.close()  # idempotent
    env.process(writer(0))
    env.process(writer(1))
    env.process(control())
    env.run()
    assert order == [(5.0, 0), (5.0, 1)]
    assert gate.is_open and gate.closures == 1 and gate.holds >= 2


def test_preemption_ladder_targets_lowest_priority_tier():
    """Scripted severity: degrade fires first, then pause, then the
    hysteretic resume — all on the priority-0 tenant, while the
    priority-1 tenant keeps its solo-identical results."""
    cfg = TenancyConfig(
        flow=FlowConfig(pool_bytes=1e6),
        preemption=PreemptionConfig(poll_interval=0.5),
    )
    m = JobManager(cfg)
    m.submit(JobSpec(tenant="low", priority=0, seed=1, nsteps=3))
    m.submit(JobSpec(tenant="high", priority=1, seed=2, nsteps=3))
    m.start()

    def scripted_severity():
        t = m.env.now
        if t < 0.4:
            return 0.90  # degrade rung
        if t < 0.9:
            return 1.00  # pause rung
        return 0.0  # recovered

    m.fleet.severity = scripted_severity
    report = m.run()

    low, high = m.jobs["low"], m.jobs["high"]
    assert low.degrade_actions == 1 and low.pause_actions == 1
    assert low.perturbed_by_governor
    assert high.degrade_actions == 0 and high.pause_actions == 0
    assert not high.perturbed_by_governor
    # hysteresis undid both rungs: gate open, client back on async path
    assert low.gate.is_open
    assert not low.predata.client.degraded
    # the governor marked the victim's ledger externally perturbed
    assert m.checker.checker("low").external_perturbation
    assert not report.violations
    # the protected tenant is still byte-identical to its solo run
    assert report.results["high"].fingerprint == solo_fingerprint(
        m.jobs["high"].spec, cfg
    )
    # ... and the cross-check knows to skip the perturbed victim
    assert isolation_violations(report, cfg) == []


def test_governor_walks_the_ladder_on_real_fleet_pressure():
    """Unscripted: a pool far smaller than one dump saturates, the
    fleet's own severity signal crosses both rungs, and the governor
    victimises the low tier first — with every ledger still conserved."""
    cfg = TenancyConfig(
        flow=FlowConfig(pool_bytes=5e4),
        preemption=PreemptionConfig(poll_interval=0.01),
    )
    m = JobManager(cfg)
    m.submit(JobSpec(tenant="low", priority=0, seed=1, nsteps=3))
    m.submit(JobSpec(tenant="high", priority=1, seed=2, nsteps=3))
    m.start()
    assert m.fleet.severity() == 0.0  # idle fleet
    report = m.run()
    low, high = m.jobs["low"], m.jobs["high"]
    assert low.degrade_actions >= 1 and low.pause_actions >= 1
    assert low.degrade_actions >= high.degrade_actions
    assert low.gate.is_open and high.gate.is_open  # nobody left wedged
    assert report.conserved


def test_cancel_skips_remaining_steps_and_conserves():
    m = JobManager()
    m.submit(JobSpec(tenant="a", seed=1, nsteps=4))
    m.submit(JobSpec(tenant="b", seed=2, nsteps=4))
    m.cancel_at("b", 3.0)
    report = m.run()
    res = report.results["b"]
    assert res.cancelled and res.steps_skipped > 0
    assert res.steps_written + res.steps_skipped == 4 * m.jobs["b"].spec.nprocs
    assert not report.violations  # ledgers drain despite the cancel
    assert not report.results["a"].cancelled
    # cancelled tenants are exempt from the solo cross-check
    assert isolation_violations(report) == []


# -- per-tenant checker ---------------------------------------------------------


def test_multitenant_checker_routes_and_prefixes():
    chk = MultiTenantChecker(["a", "b"])
    with pytest.raises(ValueError):
        MultiTenantChecker(["a", "a"])
    with pytest.raises(KeyError):
        chk.on_packed((1, 2), 10.0, 0)  # bare single-tenant key
    with pytest.raises(KeyError):
        chk.on_packed(("ghost", 1, 2), 10.0, 0)  # unknown tenant
    chk.on_packed(("a", 0, 0), 10.0, 0)
    chk.on_fetched(("a", 0, 0), 10.0)
    assert len(chk.checker("a").packed) == 1
    assert len(chk.checker("b").packed) == 0
    broken = chk.violations()
    assert broken and all(line.startswith("tenant a:") for line in broken)
    # faults broadcast: both ledgers conservatively perturbed
    chk.on_fault("node_crash", 3)
    assert chk.checker("a").perturbed and chk.checker("b").perturbed


@pytest.mark.parametrize(
    "nstaging_nodes, recovers_by",
    [(2, "restart"), (1, "degrade")],
    ids=["survivors-restart", "all-stagers-dead-degrade"],
)
def test_tenant_keyed_recovery_reaches_the_per_tenant_ledgers(
    monkeypatch, nstaging_nodes, recovers_by
):
    """Two tenants with the resilience protocol on, one dropped fetch
    (tenant a only) and one staging-node kill: retries, restarts,
    commits and degraded dumps must land in the right tenant's ledger
    and every ledger must still conserve.  The jobs layer has no
    resilience switch, so the test turns it on where the manager
    builds each deployment."""
    monkeypatch.setattr(
        manager_module, "PreDatA",
        functools.partial(
            PreDatA,
            resilience=ResilienceConfig(fetch_timeout=1.0, fetch_retry_backoff=0.01),
        ),
    )
    obs = Observability()
    m = JobManager(
        TenancyConfig(flow=FlowConfig(pool_bytes=1e6), nstaging_nodes=nstaging_nodes),
        obs=obs,
    )
    m.submit(JobSpec(tenant="a", seed=1, nsteps=4))
    m.submit(JobSpec(tenant="b", seed=2, nsteps=4))
    m.start()
    inj = FaultInjector(m.env, m.machine, seed=3)
    inj.arm(m.jobs["a"].predata.client)
    inj.drop_fetch(0, 0, delay=0.01)
    inj.crash_staging_node(at=2.3)  # mid step 1
    report = m.run()

    assert report.conserved and not report.violations
    a, b = m.checker.checker("a"), m.checker.checker("b")
    assert (a.retries, b.retries) == (1, 0)  # on_retry routed by tenant
    for ledger in (a, b):
        assert ledger.perturbed  # the kill was broadcast to both
        assert sum(ledger.committed.values()) == len(ledger.packed)
    if recovers_by == "restart":
        assert sum(a.restarts.values()) and sum(b.restarts.values())
        assert not a.degraded and not b.degraded
    else:
        # salvaged by the fallback replay, then written degraded
        assert sum(a.degraded.values()) and sum(b.degraded.values())
        degraded_tracks = {
            s.tid for s in obs.tracer.spans if s.name == "degraded_write"
        }
        assert {t.split("/")[0] for t in degraded_tracks} == {"a", "b"}
    deployments = {t: h.predata for t, h in m.jobs.items()}
    m.checker.verify(deployments)  # must not raise
    # a doctored ledger fails verification under its tenant's name only
    key = next(iter(a.packed))
    a.mapped.pop(key, None)
    a.degraded.pop(key, None)  # now a lost dump
    with pytest.raises(InvariantViolation) as err:
        m.checker.verify(deployments)
    assert "tenant a:" in str(err.value) and "tenant b:" not in str(err.value)


# -- tenant-labelled observability ----------------------------------------------


def test_bound_metrics_tenant_label():
    reg = MetricsRegistry()
    assert reg.bound() is reg  # jobs-off byte-identity
    with pytest.raises(ValueError):
        reg.bound(rank=3)  # only reserved labels bind globally
    view = reg.bound(tenant="a")
    view.inc("bytes", 5.0, rank=1)
    reg.bound(tenant="b").inc("bytes", 7.0, rank=1)
    assert reg.counter("bytes", rank=1, tenant="a") == 5.0
    assert view.counter("bytes", rank=1) == 5.0  # reads scope to the view
    with pytest.raises(ValueError):
        view.inc("bytes", tenant="b")  # call sites may not fork the series
    # mixed-type label values still render deterministically
    reg.inc("bytes", 1.0, rank="governor")
    assert len(reg.labelled("bytes")) == 3


def test_observability_tenant_views():
    obs = Observability()
    assert obs.for_tenant(None) is obs
    view = obs.for_tenant("a")
    assert obs.for_tenant("a") is view  # cached
    assert view.for_tenant("a") is view
    view.metrics.inc("x")
    assert obs.metrics.counter("x", tenant="a") == 1.0


def test_scheduler_labels_reach_metrics():
    obs = Observability()
    m = JobManager(
        TenancyConfig(flow=FlowConfig(pool_bytes=1e6)), obs=obs
    )
    m.submit(JobSpec(tenant="a", seed=1))
    m.submit(JobSpec(tenant="b", seed=2))
    report = m.run()
    assert not report.violations
    # per-tenant flow series exist (pool peaks are tenant-labelled)
    series = obs.metrics.series("flow_pool_peak_bytes")
    tenants = {dict(labels).get("tenant") for labels in series}
    assert {"a", "b"} <= tenants


# -- determinism ------------------------------------------------------------------


def test_multitenant_fingerprint_schedule_invariant():
    """Satellite regression: same-tick releases from many sources must
    drain deterministically under randomized tie-breaking."""
    cfg = TenancyConfig(flow=FlowConfig(pool_bytes=50_000.0))

    def fingerprints(tie_breaker):
        m = JobManager(cfg, tie_breaker=tie_breaker)
        for i in range(3):
            m.submit(JobSpec(tenant=f"t{i}", kind=KINDS[i], seed=i))
        report = m.run()
        assert not report.violations
        return digest_value(report.fingerprints())

    baseline = fingerprints(None)
    for seed in (1, 2, 3):
        assert fingerprints(SeededTieBreaker(seed)) == baseline


def test_jains_index():
    assert jains_index([]) == 1.0
    assert jains_index([0.0, 0.0]) == 1.0
    assert jains_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    assert jains_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


# -- the headline property ---------------------------------------------------------


@COMMON_SETTINGS
@given(
    ntenants=st.integers(min_value=2, max_value=8),
    base_seed=st.integers(min_value=0, max_value=9_999),
    nsteps=st.integers(min_value=1, max_value=2),
    pool_fraction=st.sampled_from([None, 4.0, 16.0]),
)
def test_property_isolation_under_random_tenancy(
    ntenants, base_seed, nsteps, pool_fraction
):
    """2–8 random tenants on one fleet: per-tenant ledgers conserve
    independently and every fingerprint is byte-identical to solo."""
    chunk = 24 * 4 * 8  # rows * floats * 8B, the particle chunk size
    flow = FlowConfig(
        pool_bytes=None if pool_fraction is None else chunk * pool_fraction
    )
    cfg = TenancyConfig(flow=flow)
    m = JobManager(cfg)
    specs = [
        JobSpec(
            tenant=f"t{i}",
            kind=KINDS[(base_seed + i) % len(KINDS)],
            nprocs=2,
            nsteps=nsteps,
            seed=base_seed + i,
        )
        for i in range(ntenants)
    ]
    for spec in specs:
        m.submit(spec)
    report = m.run()
    assert not report.violations, report.violations
    assert isolation_violations(report, cfg) == []
    for res in report.results.values():
        assert res.steps_written == res.spec.nprocs * res.spec.nsteps
