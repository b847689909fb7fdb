"""ScenarioHarness: attach scenarios to any run of the pipeline.

The harness owns one *enabled* :class:`~repro.faults.FaultInjector`
seeded from the scenario set, applies every active scenario through it
at attach time, and afterwards digests both the *planned* schedule and
the *fired* fault log into :meth:`schedule_hash` — the byte-identity
half of the determinism proof (same seed ⇒ same digest).

Zero-intensity scenarios are skipped entirely: a harness whose every
scenario has ``intensity == 0`` attaches nothing — no injector arm, no
routing override, no latency window — and is therefore bit-identical
to running with no harness at all (the flag-matrix test asserts this).
"""

from __future__ import annotations

import hashlib
from typing import Sequence
from zlib import crc32

from . import library
from .base import REGISTRY, Scenario, ScenarioContext, get, scenario_rng

__all__ = ["ScenarioHarness"]

library.register_library()


class ScenarioHarness:
    """Applies a set of :class:`Scenario` s to one simulation run.

    Parameters
    ----------
    scenarios: the scenario set, applied in the given order.
    seed: harness-level seed folded into the injector (per-scenario
        randomness comes from each scenario's own seed).
    """

    def __init__(self, scenarios: Sequence[Scenario], *, seed: int = 0):
        self.scenarios = list(scenarios)
        self.seed = seed
        for s in self.scenarios:
            if s.kind not in REGISTRY:
                raise KeyError(f"unknown scenario kind {s.kind!r}")
        #: planned actions recorded by appliers, in application order
        self.planned: list[tuple[str, str, float, str]] = []
        #: the harness's own injector (None until :meth:`attach`)
        self.injector = None
        self.attached = False

    # -- set introspection --------------------------------------------------
    @property
    def active(self) -> list[Scenario]:
        """The scenarios that actually do something (intensity > 0)."""
        return [s for s in self.scenarios if s.intensity > 0.0]

    @property
    def needs_regions(self) -> bool:
        """Whether any active scenario requires a RegionalTopology."""
        return any(get(s.kind).needs_regions for s in self.active)

    def invariants(self) -> tuple[str, ...]:
        """Union of invariants promised across active scenarios, in
        canonical :data:`~repro.scenarios.base.INVARIANTS` order."""
        from .base import INVARIANTS

        promised = set()
        for s in self.active:
            promised.update(get(s.kind).invariants)
        return tuple(i for i in INVARIANTS if i in promised)

    # -- attachment ---------------------------------------------------------
    def attach(self, env, machine, predata, *, nsteps: int) -> None:
        """Realise every active scenario against one run.

        Builds the harness injector, arms the staging client's fetch
        hook, and runs each active scenario's applier.  A harness with
        no active scenarios attaches nothing at all.
        """
        if self.attached:
            raise RuntimeError("harness already attached to a run")
        self.attached = True
        if not self.active:
            return
        from repro.faults import FaultInjector

        fold = crc32("|".join(s.name for s in self.active).encode())
        self.injector = FaultInjector(env, machine, seed=(self.seed << 16) ^ fold)
        self.injector.arm(predata.client)
        for scenario in self.active:
            ctx = ScenarioContext(
                env=env,
                machine=machine,
                predata=predata,
                injector=self.injector,
                scenario=scenario,
                rng=scenario_rng(scenario),
                nsteps=nsteps,
                planned=self.planned,
            )
            get(scenario.kind).apply(ctx)

    # -- determinism digest -------------------------------------------------
    @property
    def fired(self) -> list[tuple[str, float, object]]:
        """Chronological (kind, time, detail) log of faults that fired."""
        return [] if self.injector is None else list(self.injector.injected)

    def schedule_hash(self) -> str:
        """sha256 over the planned schedule *and* the fired fault log.

        Covers both halves of determinism: what the seeded appliers
        decided to do, and what the engine's event ordering actually
        made fire (including times).  Identical seeds must reproduce
        this digest byte-for-byte.
        """
        h = hashlib.sha256()
        for name, action, at, detail in self.planned:
            h.update(f"plan|{name}|{action}|{at:.9f}|{detail}\n".encode())
        for kind, at, detail in self.fired:
            h.update(f"fire|{kind}|{at:.9f}|{detail!r}\n".encode())
        return h.hexdigest()

    def __repr__(self) -> str:
        names = ",".join(s.name for s in self.scenarios) or "<none>"
        return (
            f"ScenarioHarness([{names}], seed={self.seed}, "
            f"attached={self.attached}, fired={len(self.fired)})"
        )
