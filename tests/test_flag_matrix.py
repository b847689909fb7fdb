"""Feature-flag matrix: flow x trace x faults x kernel bodies on one workload.

Every combination of the three optional subsystems runs the same seeded
chaos workload twice — on the production kernels and with every
``repro.perf.kernels.NAIVE`` reference body patched over them; the run
:func:`~repro.scenarios.fingerprint` must match the all-off
baseline wherever byte-identity is promised:

- the *trace* dimension (observability + schedule trace + invariant
  checker) promises byte-identity even when ENABLED — the sinks are
  pure recorders — so within each (flow, faults, kernels) group the
  fingerprint must not move when tracing is switched on;
- the *kernels* dimension is the pipeline-level differential for the
  hot-path kernels: there is no selector in the product, so ``naive``
  means this module patched the reference bodies onto the names the
  operators call.  Reference and production bodies are bit-for-bit
  interchangeable, so within each (flow, trace, faults) group neither
  the fingerprint nor the executed-schedule hash may move when only
  the kernel bodies differ;
- flow control and fault injection legitimately change the run, so
  across groups only determinism (same combo twice -> same digest) is
  required.
"""

from __future__ import annotations

import itertools

import pytest

from repro.check import Checker, ScheduleTrace
from repro.obs import Observability
from repro.perf import kernels
from repro.scenarios import crash_run, fingerprint, run_once

#: "naive" = every ``kernels.NAIVE`` body patched over its production name
VARIANTS = ("naive", "vectorized")
FLAGS = list(itertools.product([False, True], repeat=3))  # (flow, trace, faults)
COMBOS = [(*flags, kern) for flags in FLAGS for kern in VARIANTS]  # 16


def _run(flow: bool, trace: bool, faults: bool, kern: str = "vectorized"):
    kw = {}
    if flow:
        kw["flow_fraction"] = 0.5
    sinks = {}
    if trace:
        sinks["obs"] = Observability(label="matrix")
        sinks["schedule_trace"] = ScheduleTrace()
        sinks["check"] = Checker()
        kw.update(sinks)
    with pytest.MonkeyPatch.context() as patch:
        if kern == "naive":
            for name, reference in kernels.NAIVE.items():
                patch.setattr(kernels, name, reference)
        # faults: the staging-crash scenario at harness seed 7
        run = crash_run(7, **kw) if faults else run_once(**kw)
    return fingerprint(run), run, sinks


@pytest.fixture(scope="module")
def matrix():
    """{(flow, trace, faults, kernels): (fingerprint, run, sinks)}, all 16."""
    return {combo: _run(*combo) for combo in COMBOS}


def test_all_combinations_complete(matrix):
    for combo, (_fp, run, _s) in matrix.items():
        assert run.complete, f"combo {combo} lost dump steps {run.missing_steps}"


@pytest.mark.parametrize("flow", [False, True], ids=["flow-off", "flow-on"])
@pytest.mark.parametrize("faults", [False, True], ids=["faults-off", "faults-on"])
@pytest.mark.parametrize("kern", VARIANTS)
def test_trace_dimension_is_byte_identical(matrix, flow, faults, kern):
    """obs/schedule/check sinks enabled must not move the fingerprint."""
    fp_off = matrix[(flow, False, faults, kern)][0]
    fp_on = matrix[(flow, True, faults, kern)][0]
    assert fp_on == fp_off, (
        f"attaching trace sinks changed the run under "
        f"flow={flow} faults={faults} kernels={kern}"
    )


@pytest.mark.parametrize("flow", [False, True], ids=["flow-off", "flow-on"])
@pytest.mark.parametrize("trace", [False, True], ids=["trace-off", "trace-on"])
@pytest.mark.parametrize("faults", [False, True], ids=["faults-off", "faults-on"])
@pytest.mark.parametrize("kern", [v for v in VARIANTS if v != "vectorized"])
def test_kernel_dimension_is_byte_identical(matrix, flow, trace, faults, kern):
    """The reference kernel bodies must produce runs identical to production."""
    fp_other = matrix[(flow, trace, faults, kern)][0]
    fp_vec = matrix[(flow, trace, faults, "vectorized")][0]
    assert fp_other == fp_vec, (
        f"{kern} kernel bodies changed the run under "
        f"flow={flow} trace={trace} faults={faults}"
    )


@pytest.mark.parametrize("flow", [False, True], ids=["flow-off", "flow-on"])
@pytest.mark.parametrize("faults", [False, True], ids=["faults-off", "faults-on"])
@pytest.mark.parametrize("kern", [v for v in VARIANTS if v != "vectorized"])
def test_kernel_dimension_preserves_schedule_hash(matrix, flow, faults, kern):
    """The executed-schedule hash (every pop the engine made, in order)
    must be identical when only the kernel bodies differ."""
    h_other = matrix[(flow, True, faults, kern)][2]["schedule_trace"]
    h_vec = matrix[(flow, True, faults, "vectorized")][2]["schedule_trace"]
    assert h_other.count == h_vec.count
    assert h_other.schedule_hash == h_vec.schedule_hash, (
        f"{kern} kernel bodies perturbed the executed schedule under "
        f"flow={flow} faults={faults}"
    )


def test_all_off_combo_matches_fresh_baseline(matrix):
    fp_again, _, _ = _run(False, False, False)
    assert matrix[(False, False, False, "vectorized")][0] == fp_again


def test_fingerprint_is_sensitive_to_faults(matrix):
    """Control: the digest must actually see the injected crash."""
    base = matrix[(False, False, False, "vectorized")][0]
    assert matrix[(False, False, True, "vectorized")][0] != base


def test_traced_runs_recorded_schedules(matrix):
    for combo, (_fp, _run, sinks) in matrix.items():
        if not combo[1]:
            continue
        assert sinks["schedule_trace"].count > 0


def _serve_pass(run) -> str:
    """Serve a fixed query set over the run's recovered arrays.

    The serving layer is a separate post-pass (its own engine) over the
    pipeline's outputs; this digests every answer so two passes can be
    compared byte-for-byte.
    """
    import hashlib

    import numpy as np

    from repro.serve import Query, QueryService
    from repro.sim.engine import Engine

    env = Engine()
    service = QueryService(env)
    lo = hi = None
    for step in range(4):  # the matrix workload's nsteps
        arr = None
        for f in (run.merged, run.fallback_file):
            if f is None:
                continue
            try:
                arr = f.read_global_array("rho", step)
                break
            except Exception:
                continue
        assert arr is not None, f"step {step} unreadable from any file"
        rows = np.asarray(arr, dtype=np.float64).reshape(arr.shape[0], -1)
        service.commit_step("rho", step, partitions=np.array_split(rows, 4))
        lo = rows[:, 0].min() if lo is None else min(lo, rows[:, 0].min())
        hi = rows[:, 0].max() if hi is None else max(hi, rows[:, 0].max())
    span = (hi - lo) or 1.0
    queries = [
        Query.range("rho", {0: (lo, hi)}, step=0),
        Query.range("rho", {0: (lo, lo + 0.5 * span)}, step=3),
        Query.range("rho", {0: (lo, hi)}, step=0),  # repeat -> cache
        Query.aggregate("rho", {0: (lo, hi)}, agg_col=0, step=2),
    ]
    digest = hashlib.sha256()
    answers = {}

    def client():
        for qid, q in enumerate(queries):
            answers[qid] = yield service.submit("matrix", qid, q)

    env.process(client())
    env.run()
    for qid in range(len(queries)):
        a = answers[qid]
        digest.update(f"{qid}:{a.source}:{a.step}:{a.latency!r}".encode())
        if a.rows is not None:
            digest.update(repr(a.rows.shape).encode())
            digest.update(np.ascontiguousarray(a.rows).tobytes())
        if a.aggregate is not None:
            digest.update(repr(sorted(a.aggregate.items())).encode())
    return digest.hexdigest()


def test_serve_pass_leaves_the_run_byte_identical(matrix):
    """Serving queries over a finished run must not move its
    fingerprint (the serving layer is strictly additive), and the
    serve pass itself must be deterministic."""
    combo = (False, False, False, "vectorized")
    fp_before, run, _ = matrix[combo]
    first = _serve_pass(run)
    assert fingerprint(run) == fp_before
    assert _serve_pass(run) == first


def test_serve_pass_consistent_across_trace_dimension(matrix):
    """Byte-identical runs must serve byte-identical answers."""
    d_off = _serve_pass(matrix[(False, False, False, "vectorized")][1])
    d_on = _serve_pass(matrix[(False, True, False, "vectorized")][1])
    assert d_off == d_on


def test_invariants_hold_across_the_matrix(matrix):
    """The checker passes on every traced combo, including flow + chaos."""
    for combo, (_fp, run, sinks) in matrix.items():
        if not combo[1]:
            continue
        chk = sinks["check"]
        assert chk.packed, f"combo {combo}: checker saw no packing"
        broken = chk.violations(run.predata)
        assert broken == [], f"combo {combo}: {broken}"
        if combo[2]:
            assert chk.perturbed, f"combo {combo}: no fault recorded"


def _run_with_stream_bridge():
    """The traced no-fault combo with a StreamBridge attached."""
    from repro.stream import StreamBridge

    bridge = StreamBridge()
    sinks = dict(
        obs=Observability(label="matrix"),
        schedule_trace=ScheduleTrace(),
        check=Checker(),
    )
    run = run_once(stream_bridge=bridge, **sinks)
    return fingerprint(run), run, sinks, bridge


@pytest.fixture(scope="module")
def bridged():
    return _run_with_stream_bridge()


def test_stream_bridge_leaves_run_byte_identical(matrix, bridged):
    """Streaming enabled on the live pipeline must not move the run
    fingerprint or the executed-schedule hash — the bridge is a pure
    synchronous recorder."""
    fp_plain, _, sinks_plain = matrix[(False, True, False, "vectorized")]
    fp_bridge, _run, sinks_bridge, bridge = bridged
    assert fp_bridge == fp_plain, "stream bridge changed the run"
    plain_trace = sinks_plain["schedule_trace"]
    bridge_trace = sinks_bridge["schedule_trace"]
    assert bridge_trace.count == plain_trace.count
    assert bridge_trace.schedule_hash == plain_trace.schedule_hash, (
        "stream bridge perturbed the executed schedule"
    )
    # ...while still observing every committed step of every variable
    assert sorted((r.var, r.step) for r in bridge.records) == [
        ("rho", s) for s in range(4)
    ]


def _stream_replay(run, bridge) -> str:
    """Replay the bridge's recorded commits into a live stream.

    Like :func:`_serve_pass`, this is a separate post-pass with its
    own engine: the recorded (var, step) commits are re-published over
    a DataSpaces instance holding the run's recovered arrays, and a
    consumer group processes every step.  Digests the full delivery
    log and analysis output so two passes compare byte-for-byte.
    """
    import hashlib

    import numpy as np

    from repro.apps.readers import InTransitAnalysisReader
    from repro.check.stream import StreamChecker
    from repro.dataspaces import DataSpaces, Region
    from repro.machine import TESTING_TINY, Machine
    from repro.sim.engine import Engine
    from repro.stream import ConsumerGroup, StepStream, StreamConfig

    env = Engine()
    machine = Machine(env, 4, 2, spec=TESTING_TINY, fs_interference=False)
    ds = DataSpaces(env, machine, list(machine.staging_node_ids))
    arrays = {}
    for rec in bridge.records:
        arr = None
        for f in (run.merged, run.fallback_file):
            if f is None:
                continue
            try:
                arr = f.read_global_array(rec.var, rec.step)
                break
            except Exception:
                continue
        assert arr is not None, f"step {rec.step} unreadable from any file"
        arrays[(rec.var, rec.step)] = np.asarray(arr, dtype=np.float64)
        try:
            ds.index(rec.var)
        except KeyError:
            ds.declare(rec.var, arr.shape)

    checker = StreamChecker()
    stream = StepStream(env, machine, ds, StreamConfig(seed=3), checker=checker)
    first = arrays[(bridge.records[0].var, bridge.records[0].step)]
    domain = Region((0,) * first.ndim, first.shape)
    edges = np.linspace(0.0, 8192.0, 17)
    group = ConsumerGroup(
        env, stream, bridge.records[0].var, domain, [2, 3],
        reader_factory=lambda m: InTransitAnalysisReader(edges),
        catchup="none", name="replay",
    )
    group.start()

    def publisher():
        for rec in sorted(bridge.records, key=lambda r: (r.step, r.var)):
            yield env.timeout(0.1)
            data = arrays[(rec.var, rec.step)]
            yield from ds.put(0, rec.var, Region((0,) * data.ndim, data.shape), data)
            stream.publish(rec.var, rec.step)
        stream.close()

    env.process(publisher())
    env.run()
    assert checker.violations() == []
    digest = hashlib.sha256()
    digest.update(repr(stream.manager.events).encode())
    for r in group.readers:
        digest.update(np.asarray(r.counts).tobytes())
        digest.update(repr(list(zip(r.steps, r.occupancy))).encode())
    return digest.hexdigest()


def test_stream_replay_is_additive_and_deterministic(bridged):
    """Replaying the stream over a finished run must not move its
    fingerprint, and the replay itself must be deterministic."""
    fp_before, run, _sinks, bridge = bridged
    d1 = _stream_replay(run, bridge)
    assert fingerprint(run) == fp_before
    assert _stream_replay(run, bridge) == d1


def _run_with_zero_scenarios():
    """The traced no-fault combo with a zero-intensity scenario harness."""
    from repro.scenarios import ScenarioHarness, get, make, names

    harness = ScenarioHarness(
        [make(n, intensity=0.0) for n in names() if not get(n).needs_regions]
    )
    sinks = dict(
        obs=Observability(label="matrix"),
        schedule_trace=ScheduleTrace(),
        check=Checker(),
    )
    run = run_once(scenario_harness=harness, **sinks)
    return fingerprint(run), run, sinks, harness


def test_zero_intensity_scenario_harness_is_byte_invisible(matrix):
    """A scenario harness whose every scenario has intensity 0 must
    attach nothing: fingerprint AND executed-schedule hash unchanged
    vs the plain traced combo."""
    fp_plain, _, sinks_plain = matrix[(False, True, False, "vectorized")]
    fp_scen, _run, sinks_scen, harness = _run_with_zero_scenarios()
    assert harness.attached and not harness.active
    assert harness.injector is None, "zero-intensity harness armed an injector"
    assert fp_scen == fp_plain, "zero-intensity scenario harness changed the run"
    plain_trace = sinks_plain["schedule_trace"]
    scen_trace = sinks_scen["schedule_trace"]
    assert scen_trace.count == plain_trace.count
    assert scen_trace.schedule_hash == plain_trace.schedule_hash, (
        "zero-intensity scenario harness perturbed the executed schedule"
    )
