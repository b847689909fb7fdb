"""Adversarial scenario library: seeded chaos with a written threat model.

This package turns ad-hoc fault injection into a *registry* of named,
declarative adversarial scenarios — Zipfian hot-spots, stragglers,
bursty producers, corrupted and silently withheld fetches, regional
partitions and slowdowns, and the combined kitchen sink — each mapped
in THREATS.md to the :mod:`repro.check` invariants that must survive
it.  Scenarios are frozen dataclasses (kind, seed, intensity, targets,
window), runnable standalone, composed, or attached to any existing
pipeline run via a :class:`ScenarioHarness`; the whole schedule is
seeded, so every scenario run is reproducible byte-for-byte.

Layers:

- :mod:`repro.scenarios.base`    — Scenario/TargetSelector/ScenarioSpec
  dataclasses, the INVARIANTS vocabulary, and the registry
- :mod:`repro.scenarios.library` — the eight shipped scenarios
- :mod:`repro.scenarios.harness` — attaches a scenario set to a run and
  digests the planned + fired schedule (the determinism proof)
- :mod:`repro.scenarios.runner`  — chaos-workload glue, the sweep
  (``BENCH_chaos_matrix.json``), and :class:`ScenarioRunResult`
- :mod:`repro.scenarios.cli`     — ``python -m repro scenarios``
  ``list``/``run`` (``sweep`` is the runner's ``chaos_matrix`` bench)

Importing this package registers the shipped library.
"""

from .base import (
    INVARIANTS,
    REGISTRY,
    Scenario,
    ScenarioContext,
    ScenarioSpec,
    TargetSelector,
    get,
    make,
    names,
    register,
)
from .harness import ScenarioHarness
from .library import register_library
from .runner import (
    DEFAULT_REGIONS,
    ScenarioRunResult,
    run_named,
    run_scenarios,
    sweep,
)

register_library()

__all__ = [
    "DEFAULT_REGIONS",
    "INVARIANTS",
    "REGISTRY",
    "Scenario",
    "ScenarioContext",
    "ScenarioHarness",
    "ScenarioRunResult",
    "ScenarioSpec",
    "TargetSelector",
    "get",
    "make",
    "names",
    "register",
    "register_library",
    "run_named",
    "run_scenarios",
    "sweep",
]
