"""Scenario model: declarative dataclasses + the scenario registry.

A :class:`Scenario` is a frozen description of one adversarial
condition — *which* attack (``kind``), *how hard* (``intensity``),
*against whom* (``targets``) and under *what randomness* (``seed``);
every scenario acts in the same ``window``.  Scenarios never touch the simulation
themselves: a registered :class:`ScenarioSpec` carries the applier that
translates the description into seeded :class:`~repro.faults.FaultInjector`
primitives at attach time, plus the scenario's row of the written
threat model (THREATS.md): the threat it models and the
:mod:`repro.check` invariants that must survive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Mapping
from zlib import crc32

import numpy as np

__all__ = [
    "INVARIANTS",
    "REGISTRY",
    "Scenario",
    "ScenarioContext",
    "ScenarioSpec",
    "TargetSelector",
    "get",
    "make",
    "names",
    "register",
]

#: the invariant vocabulary scenarios may promise (THREATS.md defines
#: each; the first five are enforced by :class:`repro.check.Checker`,
#: zero-dump-loss by the chaos read-back, seeded-determinism by the
#: scenario test wall running every scenario twice)
INVARIANTS = (
    "chunk-conservation",
    "byte-ledger",
    "credit-ledger",
    "memory-ledger",
    "scheduling-rule",
    "zero-dump-loss",
    "seeded-determinism",
)


@dataclass(frozen=True)
class TargetSelector:
    """Who a scenario hits: a seeded draw of ``fraction`` of the
    population (regional scenarios draw their region the same way)."""

    fraction: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("target fraction must be in (0, 1]")

    def pick_ranks(self, rng: np.random.Generator, ncompute: int) -> list[int]:
        """The selected compute ranks (sorted, at least one)."""
        k = min(ncompute, max(1, round(self.fraction * ncompute)))
        return sorted(int(r) for r in rng.choice(ncompute, size=k, replace=False))


@dataclass(frozen=True)
class Scenario:
    """One declarative adversarial condition (see module docstring)."""

    kind: str
    name: str = ""
    seed: int = 0
    intensity: float = 1.0
    targets: TargetSelector = TargetSelector()
    #: free-form per-kind knobs as a frozen (key, value) tuple
    params: tuple[tuple[str, float], ...] = ()
    #: the (start, end) time window every scenario acts in
    window: ClassVar[tuple[float, float]] = (0.5, 6.5)

    def __post_init__(self) -> None:
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError("intensity must be in [0, 1]")
        if not self.name:
            object.__setattr__(self, "name", self.kind)

    def param(self, key: str, default: float) -> float:
        """The value of knob *key*, or *default*."""
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass
class ScenarioContext:
    """Everything an applier needs to realise one scenario on a run."""

    env: object
    machine: object
    predata: object
    injector: object
    scenario: Scenario
    rng: np.random.Generator
    nsteps: int
    #: shared plan log across every scenario of one harness:
    #: (scenario name, action, time, detail-repr) in application order
    planned: list = field(default_factory=list)

    def plan(self, action: str, at: float, detail) -> None:
        """Record one planned adversarial action (determinism digest)."""
        self.planned.append((self.scenario.name, action, float(at), repr(detail)))

    # -- population helpers ------------------------------------------------
    @property
    def ncompute(self) -> int:
        return self.predata.client.ncompute

    @property
    def nstaging(self) -> int:
        return self.predata.client.nstaging

    def compute_node_of(self, rank: int) -> int:
        """Machine node hosting compute rank *rank* (1 proc / node)."""
        ids = list(self.machine.compute_node_ids)
        return ids[rank % len(ids)]

    def child(self, scenario: Scenario) -> "ScenarioContext":
        """A sub-context for *scenario* (composed scenarios), sharing
        this context's injector and plan log but re-seeded from the
        child's own (seed, kind) pair."""
        return replace(
            self, scenario=scenario, rng=scenario_rng(scenario), planned=self.planned
        )


def scenario_rng(scenario: Scenario) -> np.random.Generator:
    """The seeded generator for *scenario*: a (seed, kind) stream, so
    two scenarios of different kinds sharing a seed stay decorrelated."""
    return np.random.default_rng([scenario.seed, crc32(scenario.kind.encode())])


@dataclass(frozen=True)
class ScenarioSpec:
    """One registry entry: defaults, applier, and the threat-model row."""

    name: str
    summary: str
    #: the adversary / failure mode this scenario models (THREATS.md)
    threat: str
    #: the :data:`INVARIANTS` entries that must survive this scenario
    invariants: tuple[str, ...]
    apply: Callable[[ScenarioContext], None]
    #: whether the run must be built on a RegionalTopology machine
    needs_regions: bool = False
    #: default Scenario-field overrides for :func:`make`
    defaults: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.invariants:
            raise ValueError(f"scenario {self.name!r} promises no invariants")
        unknown = sorted(set(self.invariants) - set(INVARIANTS))
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} names unknown invariants {unknown}"
            )


#: name -> spec, in registration order (the library registers nine)
REGISTRY: dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add *spec* to the registry (duplicate names are an error)."""
    if spec.name in REGISTRY:
        raise ValueError(f"scenario {spec.name!r} already registered")
    REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ScenarioSpec:
    """The registered spec for *name* (KeyError with the known names)."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {', '.join(names())}"
        ) from None


def names() -> list[str]:
    """Registered scenario names, in registration order."""
    return list(REGISTRY)


def make(kind: str, **overrides) -> Scenario:
    """A :class:`Scenario` of registered kind *kind*.

    Registry defaults apply first; keyword *overrides* (any Scenario
    field, plus free-form numeric knobs collected into ``params``) win.
    """
    spec = get(kind)
    fields = {"name", "seed", "intensity", "targets", "params"}
    kwargs: dict = {"kind": spec.name}
    extra: dict[str, float] = {}
    for source in (spec.defaults, overrides):
        for key, value in source.items():
            if key in fields:
                kwargs[key] = value
            else:
                extra[key] = float(value)
    if extra:
        base = dict(kwargs.get("params", ()))
        base.update(extra)
        kwargs["params"] = tuple(sorted(base.items()))
    return Scenario(**kwargs)
