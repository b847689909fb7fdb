"""Deterministic, seeded fault injection driven by the event engine.

The :class:`FaultInjector` schedules failures against the machine model
through the fault hooks added for resilience work:

- ``crash_node`` / ``crash_staging_node`` -> :meth:`Node.fail`
- ``degrade_link``                        -> :meth:`Network.degrade_link`
- ``stall_filesystem``                    -> :meth:`ParallelFileSystem.stall_window`
- ``drop_fetch`` / ``slow_fetch`` / ``random_fetch_faults``
                                          -> the staging client's fetch hook
- ``corrupt_chunk``    -> the fetch completes but delivers garbage bytes;
  the staging side detects the checksum mismatch and re-fetches (needs
  the resilient fetch path)
- ``withhold_fetch``   -> a *silent* non-answer: the RDMA get is posted
  but never completes, distinct from ``drop_fetch``'s error path — only
  the puller's per-attempt timeout ends the attempt
- ``partition_regions`` / ``slow_region`` -> extra cross-region latency
  windows on a :class:`~repro.machine.topology.RegionalTopology` network

Everything is driven either by explicit (time, target) plans or by a
seeded ``numpy`` generator, so a fixed seed reproduces the exact same
failure scenario event-for-event — the property the chaos benchmark
asserts.  A run without faults builds no injector.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.machine.filesystem import STALL_FLOOR

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules deterministic failures on a :class:`~repro.machine.machine.Machine`.

    Parameters
    ----------
    env: simulation engine.
    machine: machine model to break.
    seed: seed for all randomised choices.
    """

    def __init__(self, env, machine, *, seed: int = 0):
        self.env = env
        self.machine = machine
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        #: chronological record of faults actually fired: (kind, time, detail)
        self.injected: list[tuple[str, float, object]] = []
        # fetch fault plans: (compute_rank, step) -> list of per-attempt
        # (mode, delay) entries; attempt indexes into the list.
        self._fetch_plans: dict[tuple[int, int], list[tuple[str, float]]] = {}
        self._random_fetch: Optional[dict] = None

    def _record(self, kind: str, at: float, detail) -> None:
        """Log one fired fault (and notify the invariant checker)."""
        self.injected.append((kind, at, detail))
        if self.env.check is not None:
            self.env.check.on_fault(kind, detail)

    # -- scheduling helpers ----------------------------------------------
    def _at(self, at: float, fire) -> None:
        """Run ``fire()`` at simulated time *at* (now if already past)."""

        def body() -> Generator:
            delay = max(0.0, at - self.env.now)
            if delay > 0:
                yield self.env.timeout(delay)
            fire()
            return None

        self.env.process(body(), name=f"fault@{at:g}")

    # -- node crashes -----------------------------------------------------
    def crash_node(self, node_id: int, *, at: float) -> None:
        """Kill machine node *node_id* at time *at*."""

        def fire() -> None:
            node = self.machine.node(node_id)
            if node.alive:
                node.fail()
                self._record("crash", self.env.now, node_id)

        self._at(at, fire)

    def crash_staging_node(self, *, at: float) -> int:
        """Kill one seeded-random staging node at *at*.

        Returns the chosen node id.
        """
        ids = list(self.machine.staging_node_ids)
        if not ids:
            raise ValueError("machine has no staging nodes")
        node_id = ids[int(self.rng.integers(0, len(ids)))]
        self.crash_node(node_id, at=at)
        return node_id

    # -- link / filesystem degradation ------------------------------------
    def degrade_link(
        self, node_id: int, *, at: float, duration: float, factor: float
    ) -> None:
        """NIC of *node_id* runs at *factor* of peak during the window."""
        self.machine.network.degrade_link(node_id, at, at + duration, factor)
        self._record("degrade_link", at, (node_id, duration, factor))

    def stall_filesystem(self, *, at: float, duration: float) -> None:
        """File system bandwidth clamped to ``STALL_FLOOR`` of peak in the window."""
        self.machine.filesystem.stall_window(at, at + duration)
        self._record("fs_stall", at, (duration, STALL_FLOOR))

    # -- fetch faults ------------------------------------------------------
    def drop_fetch(
        self, compute_rank: int, step: int, *, attempts: int = 1, delay: float = 0.0
    ) -> None:
        """Drop the first *attempts* fetch attempts of (rank, step).

        ``delay`` models how long the puller waits before the transport
        reports the descriptor failed.  Requires the resilient fetch
        path (retry + timeout) to make progress afterwards.
        """
        plan = self._fetch_plans.setdefault((compute_rank, step), [])
        plan.extend([("drop", delay)] * attempts)

    def slow_fetch(self, compute_rank: int, step: int, *, delay: float) -> None:
        """Add *delay* seconds to the next fetch attempt of (rank, step)."""
        self._fetch_plans.setdefault((compute_rank, step), []).append(
            ("slow", delay)
        )

    def corrupt_chunk(
        self, compute_rank: int, step: int, *, attempts: int = 1
    ) -> None:
        """Deliver garbage bytes for the first *attempts* fetches of
        (rank, step).

        The transfer itself succeeds — the staging side must notice via
        the pack-time checksum, reject the chunk and re-fetch, so this
        primitive requires the resilient fetch path (retry budget >
        *attempts*) to make progress.
        """
        plan = self._fetch_plans.setdefault((compute_rank, step), [])
        plan.extend([("corrupt", 0.0)] * attempts)

    def withhold_fetch(self, compute_rank: int, step: int) -> None:
        """Silently withhold the first fetch response of (rank, step).

        Unlike :meth:`drop_fetch` (the transport *reports* the failed
        descriptor), a withheld fetch simply never answers: the attempt
        hangs until the puller's per-attempt timeout interrupts it, so
        progress requires the resilient fetch path.
        """
        plan = self._fetch_plans.setdefault((compute_rank, step), [])
        plan.append(("withhold", 0.0))

    # -- regional faults ---------------------------------------------------
    def partition_regions(
        self,
        region_a: str,
        region_b: str,
        *,
        at: float,
        duration: float,
        extra: float,
    ) -> None:
        """Cross-``(region_a, region_b)`` transfers posted during the
        window pay *extra* seconds of latency (a partition when *extra*
        exceeds the fetch timeout; schedule several short windows for a
        flapping link).  Requires a :class:`RegionalTopology` network.
        """
        self.machine.network.region_extra_window(
            region_a, region_b, at, at + duration, extra
        )
        self._record("region_partition", at, (region_a, region_b, duration, extra))

    def slow_region(
        self, region: str, *, at: float, duration: float, extra: float
    ) -> None:
        """Every transfer into/out of *region* posted during the window
        pays *extra* seconds (a congested or distant site)."""
        net = self.machine.network
        for other in net.topology.regions:
            if other != region:
                net.region_extra_window(region, other, at, at + duration, extra)
        self._record("slow_region", at, (region, duration, extra))

    def random_fetch_faults(
        self,
        *,
        drop_prob: float = 0.0,
        slow_prob: float = 0.0,
        slow_seconds: float = 0.5,
    ) -> None:
        """Seeded per-attempt random fetch faults (first attempt only).

        Retries are never re-faulted, so a finite retry budget always
        converges; determinism comes from the injector seed plus the
        engine's deterministic event ordering.
        """
        if drop_prob + slow_prob > 1.0:
            raise ValueError("drop_prob + slow_prob must be <= 1")
        self._random_fetch = {
            "drop_prob": drop_prob,
            "slow_prob": slow_prob,
            "slow_seconds": slow_seconds,
        }

    def fetch_fault(
        self, compute_rank: int, step: int, attempt: int
    ) -> Optional[tuple[str, float]]:
        """The hook installed on the staging client.

        Returns ``None`` (no fault), ``("drop", delay)`` or
        ``("slow", delay)`` for this fetch attempt.
        """
        plan = self._fetch_plans.get((compute_rank, step))
        if plan and attempt < len(plan):
            mode, delay = plan[attempt]
            self._record(
                f"fetch_{mode}", self.env.now, (compute_rank, step, attempt)
            )
            return (mode, delay)
        if self._random_fetch and attempt == 0:
            rf = self._random_fetch
            u = float(self.rng.random())
            if u < rf["drop_prob"]:
                self._record(
                    "fetch_drop", self.env.now, (compute_rank, step, attempt)
                )
                return ("drop", 0.0)
            if u < rf["drop_prob"] + rf["slow_prob"]:
                self._record(
                    "fetch_slow", self.env.now, (compute_rank, step, attempt)
                )
                return ("slow", rf["slow_seconds"])
        return None

    def arm(self, client) -> None:
        """Install the fetch-fault hook on a :class:`StagingClient`."""
        client.fault_hook = self.fetch_fault

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, "
            f"fired={len(self.injected)})"
        )
