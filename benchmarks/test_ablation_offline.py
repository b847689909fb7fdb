"""Ablation — the offline alternative (§V.B.3).

End users could replace PreDatA with offline post-processing: dump raw
data, read it back, operate, rewrite.  The paper's tradeoffs, asserted
here against the cost models:

- for non-reducing operations (sorting, layout reorg) the offline path
  moves the data through the disk controllers 3x instead of 1x and
  consumes the dump's volume again in scratch space (1 TB per 120 s at
  65,536 cores);
- offline latency is far beyond the in-transit path's, making online
  monitoring impossible (paper: "hundreds of seconds");
- for reducing operations (histograms) offline still costs a full
  read-back of the step.
"""

from repro.core import OfflineCostModel
from repro.experiments.runner import run_gtc
from repro.machine import JAGUAR_XT5, Machine
from repro.sim import Engine

STEP_BYTES_16K = 2048 * 132e6  # ~260 GB per dump at 16,384 cores
STEP_BYTES_65K = 8192 * 132e6  # ~1 TB per dump at 65,536 cores


def test_ablation_offline(once):
    def measure():
        eng = Engine()
        machine = Machine(eng, 64, spec=JAGUAR_XT5)
        model = OfflineCostModel(machine)
        sort_off = model.estimate(STEP_BYTES_16K, reduces_data=False)
        hist_off = model.estimate(
            STEP_BYTES_16K, reduces_data=True, output_bytes=8e6
        )
        tb = model.estimate(STEP_BYTES_65K, reduces_data=False)
        st = run_gtc(16384, "staging", "sort", ndumps=1,
                     iterations_per_dump=2,
                     compute_seconds_per_iteration=10.0)
        return sort_off, hist_off, tb, st.staging_reports[0].latency

    sort_off, hist_off, tb, staging_latency = once(measure)
    print()
    print(f"offline sort : read {sort_off.read_seconds:.0f} s + process "
          f"{sort_off.process_seconds:.0f} s + write "
          f"{sort_off.write_seconds:.0f} s = {sort_off.latency:.0f} s, "
          f"{sort_off.disk_controller_trips} disk trips, "
          f"{sort_off.extra_storage_bytes / 1e9:.0f} GB scratch")
    print(f"offline hist : {hist_off.latency:.0f} s, "
          f"{hist_off.disk_controller_trips} disk trips")
    print(f"offline sort @65k cores: {tb.extra_storage_bytes / 1e12:.2f} TB "
          f"scratch per 120 s dump")
    print(f"in-transit sort latency: {staging_latency:.0f} s")

    # 3x vs 1x through the disk controllers; scratch = full dump volume
    assert sort_off.disk_controller_trips == 3
    assert sort_off.extra_storage_bytes == STEP_BYTES_16K
    assert tb.extra_storage_bytes >= 1e12  # ~1 TB per dump at 65k cores
    # offline latency rules out online monitoring: at 65,536 cores the
    # 1 TB reorganisation cannot even keep up with the 120 s dump rate
    # ("read and write latency would be hundreds of seconds")
    assert tb.latency > 120.0
    assert sort_off.latency > staging_latency * 0.5
    # even reducing operations pay a full read-back
    assert hist_off.read_seconds > 0.5 * sort_off.read_seconds
    assert hist_off.disk_controller_trips == 2
