"""Pixie3D at 256 cores, pinned exactly: BP bytes, metrics, step report, engine.

One single-dump ``run_pixie3d(256, placement, collect_files=True)`` per
placement.  The BP file the run returns (``merged_file`` when staged,
``unmerged_file`` in-compute) is saved and its sha256 compared; every
``AppMetrics`` field, the CPU bill, the staging ``StepReport`` and the
run's network (final clock, engine event count, RX bytes) are compared
with ``==``.  A host-time change to the wire, the collectives, the
array-merge operator or the FFS/BP codecs must leave all of them as they
are; a change that moves one is a model change and re-records it.
"""

import hashlib
from dataclasses import asdict

import pytest

from repro.experiments.runner import run_pixie3d
from repro.machine.network import live_networks, registry_mark

PINS = {
    "staging": dict(
        sha256="5e7879f8d6357e2abb43f8bb7307bbfd1e3cee19947da0f00fc19a204229df70",
        metrics=dict(compute=101.6064000000001, comm=0.9548820000005854,
                     io_blocking=0.0004058450566191141, operations=0.0,
                     total=102.56168784505729),
        cpu_seconds=26460.91546402478,
        reports=[dict(step=0, t_dump_start=102.56128200000067,
                      gather_requests=8.24571387170181e-07, aggregate=0.0,
                      fetch=1.3257809147174981, map=0.016656625049108698,
                      shuffle=0.0, reduce=0.0009986438095666017,
                      finalize=0.33412254719999623, latency=1.6779645758327888,
                      bytes_fetched=134217727.99999999,
                      bytes_shuffled=139810133.3333333,
                      peak_buffer_bytes=2097151.9999999995)],
        clock=104.23924657583346,
        seq=2452,
        net_bytes=134234111.99999997,
    ),
    "incompute": dict(
        sha256="fba3e8d7a4f667fc5744370817e6f337e071781b82c01dfb67d3185683de7999",
        metrics=dict(compute=100.80000000000024, comm=0.9548820000005712,
                     io_blocking=0.09410969305096728, operations=0.0,
                     total=101.84899169305179),
        cpu_seconds=26073.341873421257,
        reports=[],
        clock=101.84899169305179,
        seq=1396,
        net_bytes=0.0,
    ),
}


@pytest.mark.parametrize("placement", sorted(PINS))
def test_pixie3d_256_cores_is_pinned_exactly(placement, tmp_path):
    mark = registry_mark()
    result = run_pixie3d(256, placement, collect_files=True)
    (net,) = live_networks(mark)
    bp = result.merged_file if placement == "staging" else result.unmerged_file
    path = tmp_path / "pixie3d.bp"
    bp.save(path)
    got = dict(
        sha256=hashlib.sha256(path.read_bytes()).hexdigest(),
        metrics=asdict(result.metrics),
        cpu_seconds=result.cpu_seconds,
        reports=[asdict(r) for r in result.staging_reports],
        clock=net.env.now,
        seq=net.env._seq,
        net_bytes=net.total_bytes(),
    )
    assert got == PINS[placement]
