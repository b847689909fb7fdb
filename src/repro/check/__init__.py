"""Verification subsystem: is the reproduction computing the right thing?

Three independent pillars, usable as a library, a pytest plugin
(:mod:`repro.check.pytest_plugin`) and a CLI (``python -m repro check``):

- **Schedule-perturbation fuzzing** (:mod:`repro.check.fuzzer`) —
  re-run a workload under seeded randomized tie-breaking of
  simultaneous engine events and assert the physics-level result
  fingerprint is invariant; divergences come with a minimized
  event-trace diff.
- **Pipeline conservation invariants** (:mod:`repro.check.invariants`)
  — an off-by-default ``env.check`` sink recording chunk, byte, credit
  and memory ledgers plus the §IV.A scheduling rule, verified at
  drain.
- **Differential operator oracles** (:mod:`repro.check.oracle`) —
  every built-in operator's staged single-pass output compared against
  an offline numpy reference on the concatenated global data.
"""

from repro.check.fingerprint import digest_value, result_fingerprint
from repro.check.fuzzer import FuzzReport, FuzzRun, ScheduleFuzzer
from repro.check.invariants import Checker, InvariantViolation
from repro.check.oracle import OracleResult, check_workload, run_differential
from repro.check.stream import StreamChecker
from repro.check.tenancy import MultiTenantChecker
from repro.check.trace import ScheduleTrace, minimized_trace_diff
from repro.check.workloads import (
    OPERATOR_KINDS,
    WorkloadRun,
    make_operators,
    run_workload,
)

__all__ = [
    "Checker",
    "FuzzReport",
    "FuzzRun",
    "InvariantViolation",
    "MultiTenantChecker",
    "OPERATOR_KINDS",
    "OracleResult",
    "ScheduleFuzzer",
    "ScheduleTrace",
    "StreamChecker",
    "WorkloadRun",
    "check_workload",
    "digest_value",
    "make_operators",
    "minimized_trace_diff",
    "result_fingerprint",
    "run_differential",
    "run_workload",
]
