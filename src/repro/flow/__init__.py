"""Flow control for the staging pipeline (credits, pools, pressure).

``repro.flow`` turns hard staging-memory overflows into governed
backpressure.  Three cooperating mechanisms:

1. :class:`~repro.flow.pool.BufferPool` — one per staging node.  The
   hard bound: every fetched chunk holds pool bytes from fetch until
   Map frees it; acquires block FIFO in simulated time; crossing the
   high watermark spills cold chunks to the file system (re-fetched on
   demand).
2. :class:`~repro.flow.credits.CreditBank` — one per staging rank.
   Admission control: a compute-side write must obtain byte credits
   from its routed staging rank before sending its fetch request; an
   optional CoDel-style sojourn target degrades over-waiting writes to
   the synchronous fallback path instead of queueing unboundedly.
3. :class:`~repro.flow.pressure.PressureController` — feeds the
   :class:`~repro.core.scheduler.MovementScheduler` so fetches into a
   near-full pool are throttled (rate-shaped), not just deferred.

The whole subsystem is off by default (``PreDatA(flow=None)``) and the
disabled path is byte-identical to pre-flow behaviour.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional

from repro.flow.config import FlowConfig
from repro.flow.credits import CreditBank
from repro.flow.pool import BufferPool, ChunkTicket
from repro.flow.pressure import PressureController
from repro.machine.machine import Machine
from repro.sim.engine import Engine

__all__ = [
    "FlowConfig",
    "FlowControl",
    "BufferPool",
    "ChunkTicket",
    "CreditBank",
    "PressureController",
]


class FlowControl:
    """Facade wiring pools, credit banks and the pressure controller.

    Parameters
    ----------
    env: simulation engine.
    machine: the machine model (pools charge its staging nodes; spill
        I/O goes through its file system).
    config: :class:`FlowConfig` knobs.
    staging_rank_nodes: node id hosting each staging rank (index =
        staging rank), exactly as built by
        :class:`~repro.core.middleware.PreDatA`.
    fetch_rate_cap: the client's RDMA pacing rate, the reference rate
        for pressure throttling (node memory bandwidth when the client
        is unpaced).
    """

    def __init__(
        self,
        env: Engine,
        machine: Machine,
        config: FlowConfig,
        *,
        staging_rank_nodes: list[int],
        fetch_rate_cap: Optional[float] = None,
    ):
        self.env = env
        self.machine = machine
        self.config = config
        self.staging_rank_nodes = list(staging_rank_nodes)
        #: node id -> BufferPool
        self.pools: dict[int, BufferPool] = {}
        for node_id in dict.fromkeys(self.staging_rank_nodes):
            self.pools[node_id] = BufferPool(
                env, machine.node(node_id), machine.filesystem, config
            )
        ranks_per_node = Counter(self.staging_rank_nodes)
        #: staging rank -> CreditBank
        self.banks: dict[int, CreditBank] = {}
        for rank, node_id in enumerate(self.staging_rank_nodes):
            pool = self.pools[node_id]
            capacity = (
                config.credit_bytes
                if config.credit_bytes is not None
                else pool.capacity / ranks_per_node[node_id]
            )
            self.banks[rank] = CreditBank(env, rank, capacity, config)
        self.pressure = PressureController(
            env, self.pools, fetch_rate_cap or machine.spec.node.memory_bandwidth
        )
        #: chunk key -> rank of the bank holding its grant
        self._grant_owner: dict = {}

    # -- lookup -------------------------------------------------------------
    def pool_for(self, node_id: int) -> Optional[BufferPool]:
        """Buffer pool of staging node *node_id* (None for non-staging)."""
        return self.pools.get(node_id)

    # -- credit lifecycle ---------------------------------------------------
    def request_credits(
        self, rank: int, key, nbytes: float, *, can_degrade: bool = False
    ):
        """Process body: obtain credits from *rank*; returns granted?"""
        granted = yield from self.banks[rank].request(
            key, nbytes, can_degrade=can_degrade
        )
        if granted:
            self._grant_owner[key] = rank
            if self.env.check is not None:
                self.env.check.on_credit_granted(key, nbytes, rank)
        return granted

    def release_credits(self, key) -> None:
        """Idempotently return the credits of chunk *key*."""
        rank = self._grant_owner.pop(key, None)
        if rank is not None:
            self.banks[rank].release(key)
            if self.env.check is not None:
                self.env.check.on_credit_released(key, rank)

    def on_stager_failed(
        self, dead_rank: int, reroute: Callable[[int], Optional[int]]
    ) -> None:
        """Move a dead rank's outstanding grants to their failover owners.

        ``reroute(compute_rank)`` names the surviving rank now serving
        that client (None when no stager survives).  Transfers
        overcommit the adopting bank deliberately: the bytes are
        already packed on the compute nodes and will be re-fetched.
        """
        bank = self.banks.get(dead_rank)
        if bank is None:
            return
        for key, nbytes in sorted(bank.revoke_all().items()):
            # staging keys are (compute_rank, step); stream's
            # (sub_id, member, step) keys live in the stream's own banks
            compute_rank, _step = key
            new_rank = reroute(compute_rank)
            if new_rank is None or new_rank == dead_rank:
                self._grant_owner.pop(key, None)
                if self.env.check is not None:
                    # revoke_all already returned the bytes to the bank
                    self.env.check.on_credit_released(key, dead_rank)
                continue
            self.banks[new_rank].force_grant(key, nbytes)
            self._grant_owner[key] = new_rank

    # -- aggregate stats ----------------------------------------------------
    def spill_bytes(self) -> float:
        """Total bytes spilled to the file system across all pools."""
        return sum(p.spill_bytes for p in self.pools.values())

    def unspill_bytes(self) -> float:
        """Total bytes re-fetched from spill across all pools."""
        return sum(p.unspill_bytes for p in self.pools.values())

    def mean_sojourn(self) -> float:
        """Mean credit-queue sojourn (seconds) over every grant."""
        grants = sum(b.grants for b in self.banks.values())
        total = sum(b.total_sojourn for b in self.banks.values())
        return total / grants if grants else 0.0

    def rejections(self) -> int:
        """CoDel-degraded writes across all banks."""
        return sum(b.rejections for b in self.banks.values())

    def outstanding_credit_bytes(self) -> float:
        """Bytes currently granted across all banks."""
        return sum(b.outstanding for b in self.banks.values())

    def queued_credit_bytes(self) -> float:
        """Bytes currently waiting for credits across all banks."""
        return sum(b.queued_bytes for b in self.banks.values())

    def describe_pressure(self) -> str:
        """One-line state summary (drain-timeout diagnostics)."""
        pools = ", ".join(
            f"node{nid}: {p.used:.3g}/{p.capacity:.3g} B used, "
            f"{p.queued} waiter(s), {p.spills} spill(s)"
            for nid, p in sorted(self.pools.items())
        )
        return (
            f"pools [{pools}]; credits "
            f"{self.outstanding_credit_bytes():.3g} B outstanding, "
            f"{self.queued_credit_bytes():.3g} B queued, "
            f"{self.rejections()} degraded"
        )
