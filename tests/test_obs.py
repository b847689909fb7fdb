"""Tests for the repro.obs observability layer.

Three groups:

- unit tests of the Tracer / MetricsRegistry primitives;
- pipeline integration: an instrumented staging run produces spans for
  every phase and the expected metrics;
- the determinism guard: with observability *disabled* (the default),
  the pipeline is byte-identical to the uninstrumented one, and even
  with it *enabled* the simulated results do not change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tests.helpers import PARTICLE_GROUP, particle_step, run_staging_pipeline
from repro.core import PreDatA
from repro.machine import TESTING_TINY, Machine
from repro.mpi import World
from repro.obs import HistogramStat, MetricsRegistry, Observability, Tracer
from repro.operators import Histogram2DOperator, MinMaxOperator, SampleSortOperator
from repro.sim import Engine


# --------------------------------------------------------------- tracer
def test_tracer_span_and_instant():
    tr = Tracer()
    pid = tr.begin_process("run0")
    s = tr.span("fetch", "pipeline", 1.0, 2.5, pid=pid, tid="stage0", nbytes=42)
    assert s.duration == pytest.approx(1.5)
    tr.instant("crash", "recovery", 3.0, pid=pid, tid="ctl")
    assert tr.names() == {"fetch", "crash"}
    assert tr.categories() == {"pipeline", "recovery"}
    assert len(tr.by_name("fetch")) == 1


def test_tracer_rejects_negative_duration():
    tr = Tracer()
    pid = tr.begin_process("run0")
    with pytest.raises(ValueError):
        tr.span("bad", "pipeline", 2.0, 1.0, pid=pid, tid="t")


def test_chrome_trace_format(tmp_path):
    tr = Tracer()
    pid = tr.begin_process("myrun")
    tr.span("map", "pipeline", 0.5, 1.5, pid=pid, tid="stage0", chunk=3)
    tr.instant("commit", "recovery", 2.0, pid=pid, tid="stage0")
    path = tmp_path / "trace.json"
    tr.write_chrome_trace(str(path))
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert any(e["args"]["name"] == "myrun" for e in meta)
    x = next(e for e in events if e["ph"] == "X")
    # Chrome trace timestamps are microseconds
    assert x["ts"] == pytest.approx(0.5e6)
    assert x["dur"] == pytest.approx(1.0e6)
    assert x["args"]["chunk"] == 3
    assert any(e["ph"] == "i" for e in events)


def test_jsonl_sidecar(tmp_path):
    tr = Tracer()
    pid = tr.begin_process("r")
    tr.span("reduce", "pipeline", 0.0, 1.0, pid=pid, tid="t")
    path = tmp_path / "trace.jsonl"
    tr.write_jsonl(str(path))
    lines = [json.loads(ln) for ln in path.read_text().splitlines() if ln]
    assert any(rec.get("name") == "reduce" for rec in lines)


# -------------------------------------------------------------- metrics
def test_metrics_counters_and_labels():
    m = MetricsRegistry()
    m.inc("bytes", 10.0, stage=0)
    m.inc("bytes", 5.0, stage=0)
    m.inc("bytes", 7.0, stage=1)
    assert m.counter("bytes", stage=0) == 15.0
    assert m.counter("bytes", stage=1) == 7.0
    assert m.counter("bytes", stage=9) == 0.0
    assert len(m.series("bytes")) == 2
    labelled = m.labelled("bytes")
    assert ({"stage": 0}, 15.0) in labelled


def test_metrics_gauges_and_histograms():
    m = MetricsRegistry()
    m.gauge_max("peak", 10.0, node=0)
    m.gauge_max("peak", 5.0, node=0)  # lower: ignored
    assert m.gauge("peak", node=0) == 10.0
    assert m.gauge("peak", node=1) is None
    for v in (1.0, 2.0, 3.0):
        m.observe("lat", v)
    h = m.histogram("lat")
    assert (h.count, h.total, h.minimum, h.maximum) == (3, 6.0, 1.0, 3.0)
    assert h.mean == pytest.approx(2.0)
    assert m.histogram("nope") is None


def test_histogram_stat_empty_mean():
    assert HistogramStat().mean == 0.0


def test_metrics_summary_table():
    m = MetricsRegistry()
    assert "no metrics" in m.summary_table()
    m.inc("a", 1.0, x=1)
    m.gauge_max("b", 2.0)
    m.observe("c", 3.0)
    text = m.summary_table(title="T")
    assert text.startswith("T")
    for frag in ("a{x=1}", "counter", "gauge", "histogram"):
        assert frag in text


# ---------------------------------------------------------- integration
def test_engine_obs_defaults_to_none():
    assert Engine().obs is None


def test_instrumented_pipeline_produces_phase_spans():
    obs = Observability()
    op = SampleSortOperator("electrons", key_column=0)
    run_staging_pipeline([op], obs=obs)
    names = obs.tracer.names()
    for phase in ("gather_requests", "aggregate", "fetch", "map",
                  "shuffle", "reduce", "finalize", "pack", "request",
                  "partial_calculate"):
        assert phase in names, f"missing span {phase!r}"
    # per-reducer shuffle-byte matrix recorded
    pairs = obs.metrics.labelled("shuffle_bytes")
    assert pairs and all(v >= 0 for _lbl, v in pairs)
    assert obs.metrics.counter("net_transfers") > 0
    # every reducer has a bucket_rows series, even if zero
    rows = obs.metrics.labelled("bucket_rows")
    assert len(rows) == 2  # two staging procs in the tiny pipeline
    assert sum(v for _lbl, v in rows) == 8 * 40  # all rows accounted for


_PLACEMENT_PROBE = """
from tests.helpers import run_staging_pipeline
from repro.obs import Observability
from repro.operators import Histogram2DOperator, HistogramOperator

obs = Observability()
ops = [
    HistogramOperator("electrons", column=7, bins=16),
    Histogram2DOperator("electrons", columns=(0, 3), bins=(8, 8)),
]
_, _, predata, _ = run_staging_pipeline(ops, obs=obs)
for op in ops:
    per_rank = predata.service.results[op.name][0]
    print(op.name, [rank for rank, res in sorted(per_rank.items()) if res is not None])
print(obs.metrics.summary_table())
"""


def test_reducer_placement_is_independent_of_the_hash_seed():
    """Regression: string tags ("hist", "hist2d") went through
    ``hash()``, so the reducing rank — and the ``bucket_rows{reducer=N}``
    / ``shuffle_bytes{dst=N}`` labels ``--trace`` prints — flipped with
    ``PYTHONHASHSEED`` (1 and 2 disagree on ``hash("hist") % 2``)."""
    root = Path(__file__).resolve().parents[1]
    outs = []
    for seed in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join([str(root), str(root / "src")]),
        }
        outs.append(
            subprocess.run(
                [sys.executable, "-c", _PLACEMENT_PROBE],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
        )
    assert "bucket_rows{" in outs[0] and "shuffle_bytes{dst=" in outs[0]
    assert outs[0] == outs[1]


#: StepReport field each staging ``pipeline`` span's duration adds to.
#: ``fetch`` has no entry: the report derives it from the streaming
#: window and the map time (fetches overlap Map), not from a span sum.
_SPAN_PHASE = {
    "gather_requests": "gather_requests",
    "aggregate": "aggregate",
    "map": "map",
    "combine": "shuffle",
    "shuffle": "shuffle",
    "reduce": "reduce",
    "finalize": "finalize",
}


def test_step_report_equals_the_sum_of_its_pipeline_spans():
    """The two accounts of a staging step agree: per (staging rank,
    step), the traced phase spans sum to the hand-kept StepReport."""
    obs = Observability()
    ops = [
        SampleSortOperator("electrons", key_column=0),
        Histogram2DOperator("electrons", columns=(1, 2), bins=(8, 8)),
    ]
    _, _, predata, _ = run_staging_pipeline(ops, nsteps=2, obs=obs)
    sums = {}
    for s in obs.tracer.spans:
        if s.cat == "pipeline" and s.name in _SPAN_PHASE:
            rank = int(s.tid.removeprefix("stage"))
            key = (rank, s.args["step"], _SPAN_PHASE[s.name])
            sums[key] = sums.get(key, 0.0) + s.duration
    checked = 0
    for step, per_rank in predata.service.rank_reports.items():
        for rank, report in per_rank.items():
            for phase in set(_SPAN_PHASE.values()):
                spanned = sums.get((rank, step, phase), 0.0)
                assert getattr(report, phase) == pytest.approx(spanned, rel=0, abs=1e-9)
                checked += spanned > 0
    assert len(predata.service.rank_reports) == 2
    assert checked >= 2 * 2 * 5  # two steps, two ranks, the busy phases


def test_observability_dump_roundtrip(tmp_path):
    obs = Observability()
    op = SampleSortOperator("electrons", key_column=0)
    run_staging_pipeline([op], obs=obs)
    out = tmp_path / "trace.json"
    written = obs.dump(str(out))
    assert [str(out), str(out) + "l"] == written
    doc = json.loads(out.read_text())
    assert {"fetch", "map", "shuffle", "reduce", "finalize"} <= {
        e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
    }


# --------------------------------------------------- determinism guard
def test_disabled_observability_is_byte_identical():
    """Tier-1 guard: the default (obs=None) pipeline must match the
    pre-instrumentation pipeline event-for-event and bit-for-bit, and
    an *enabled* sink must not change the simulated results either."""
    from repro.experiments.chaos import fingerprint, run_once

    plain = fingerprint(run_once(rep_ranks=4, nsteps=2))
    again = fingerprint(run_once(rep_ranks=4, nsteps=2))
    traced = fingerprint(run_once(rep_ranks=4, nsteps=2, obs=Observability()))
    assert plain == again  # baseline determinism
    assert plain == traced  # recording never perturbs the simulation


def test_instrumented_run_matches_uninstrumented_timings():
    op_a = SampleSortOperator("electrons", key_column=0)
    _, _, predata_a, visible_a = run_staging_pipeline([op_a])
    op_b = SampleSortOperator("electrons", key_column=0)
    obs = Observability()
    _, _, predata_b, visible_b = run_staging_pipeline([op_b], obs=obs)
    rep_a = predata_a.service.step_report(0)
    rep_b = predata_b.service.step_report(0)
    assert rep_a.latency == rep_b.latency
    assert rep_a.shuffle == rep_b.shuffle
    assert visible_a == visible_b
    # and the traced run really did record something
    assert obs.tracer.names()
    # sorted output identical
    for r in range(predata_a.nstaging_procs):
        np.testing.assert_array_equal(
            np.atleast_2d(predata_a.service.result(op_a.name, 0, r)),
            np.atleast_2d(predata_b.service.result(op_b.name, 0, r)),
        )


def test_deferred_fetch_is_traced_per_node():
    """A fetch held back by the application's comm phase shows up as a
    ``scheduler_defer`` span and in the per-node deferral counters."""
    obs = Observability()
    eng = Engine()
    obs.bind(eng, label="defer")
    machine = Machine(eng, 2, 1, spec=TESTING_TINY, fs_interference=False)
    predata = PreDatA(
        eng, machine, PARTICLE_GROUP, [MinMaxOperator("electrons")], ncompute_procs=2
    )
    predata.start()
    app = World(eng, machine.network, [0, 1], name="app", node_lookup=machine.node)

    def app_main(comm):
        step = particle_step(comm.rank, 2, 40)
        if comm.rank == 0:
            # the dump is requested from inside a collective burst
            predata.scheduler.enter_comm_phase(comm.node_id)
        yield from predata.transport.write_step(comm, step)
        yield from comm.sleep(0.5)
        if comm.rank == 0:
            predata.scheduler.exit_comm_phase(comm.node_id)

    app.spawn(app_main)
    eng.run()
    assert predata.scheduler.deferred_fetches == 1
    spans = [s for s in obs.tracer.spans if s.name == "scheduler_defer"]
    assert [(s.args["node"], s.tid) for s in spans] == [(0, "node0")]
    assert spans[0].duration == pytest.approx(predata.scheduler.total_defer_seconds)
    assert obs.metrics.labelled("scheduler_defers") == [({"node": 0}, 1.0)]
    (labels, seconds), = obs.metrics.labelled("scheduler_defer_seconds")
    assert labels == {"node": 0} and 0.4 < seconds <= 0.5
