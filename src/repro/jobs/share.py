"""Weighted fair-share carving of the staging fleet's byte budgets.

Each physical budget — one :class:`~repro.flow.pool.BufferPool` worth
of staging-node memory, one :class:`~repro.flow.credits.CreditBank`
worth of per-rank admission credits — becomes a *share group* split
among tenants by weight:

- every tenant gets a private pool/bank whose ``capacity`` is its
  weighted carve, so all watermark/spill/CoDel logic operates relative
  to the tenant's own allotment;
- the group enforces the *physical* bound: a tenant past its carve may
  still be granted bytes as long as the group total fits
  (work-conserving redistribution of idle carve, via the
  ``group.can_borrow`` hook in ``BufferPool._fits`` /
  ``CreditBank._fits``);
- a release anywhere pumps every sibling in deterministic tenant
  order, so freed budget is immediately work-conserving;
- the global spill policy: a tenant over its own high watermark spills
  its *own* cold chunks (the private watermarks see to that), and a
  tenant holding *borrowed* bytes starts shedding them the moment any
  sibling queues — one tenant's burst never evicts a neighbor that is
  within its carve.
"""

from __future__ import annotations

from collections import Counter

from repro.flow import FlowConfig, FlowControl
from repro.flow.credits import CreditBank
from repro.flow.pool import BufferPool
from repro.flow.pressure import PressureController
from repro.machine.machine import Machine
from repro.sim.engine import Engine

__all__ = [
    "ShareGroup",
    "NodeShareGroup",
    "CreditShareGroup",
    "TenantBufferPool",
    "StagingFleet",
    "TenantFlowControl",
]


class ShareGroup:
    """One physical byte budget split among registered tenant members."""

    def __init__(self, capacity: float):
        if capacity <= 0:
            raise ValueError("share-group capacity must be positive")
        self.capacity = float(capacity)
        #: (tenant, member) sorted by tenant for deterministic pumping
        self._members: list = []

    def register(self, tenant: str, member) -> None:
        """Adopt *member* as *tenant*'s carve of this budget."""
        self._members.append((tenant, member))
        self._members.sort(key=lambda tm: str(tm[0]))
        member.group = self

    def members(self) -> list:
        """Registered members, in deterministic tenant order."""
        return [m for _t, m in self._members]

    def _usage(self, member) -> float:
        raise NotImplementedError

    @property
    def used(self) -> float:
        """Bytes held across every member (the physical occupancy)."""
        return sum(self._usage(m) for m in self.members())

    def can_borrow(self, member, nbytes: float) -> bool:
        """May *member* take *nbytes* beyond its carve right now?

        Work conservation: idle carve belongs to whoever needs it, but
        the group total never exceeds the physical budget.
        """
        return self.used + nbytes <= self.capacity

    def pump(self, exclude=None) -> None:
        """Re-run every member's grant loop (deterministic tenant order).

        Called by a member after it released bytes: the freed budget
        may unblock a *sibling's* waiters, not just its own.
        """
        for member in self.members():
            if member is not exclude:
                member._pump()


class NodeShareGroup(ShareGroup):
    """One staging node's buffer-pool budget, shared across tenants.

    Exposes ``used``/``low``/``high``/``capacity`` with
    :class:`~repro.flow.pool.BufferPool` semantics so a
    :class:`~repro.flow.pressure.PressureController` can compute
    fleet-level severity directly from groups.
    """

    def __init__(self, node_id: int, capacity: float, config: FlowConfig):
        super().__init__(capacity)
        self.node_id = node_id
        self.high = config.high_watermark * self.capacity
        self.low = config.low_watermark * self.capacity

    def _usage(self, member) -> float:
        return member.used

    def has_queued(self, exclude=None) -> bool:
        """Is any (other) tenant currently waiting for pool bytes?"""
        return any(
            m.queued > 0 for m in self.members() if m is not exclude
        )

    def shed(self, requester) -> None:
        """A member is blocked: ask over-carve siblings to spill.

        Only tenants holding *borrowed* bytes (used beyond their own
        carve) are nudged — a neighbor within its carve is never made
        to spill for someone else's burst.
        """
        for member in self.members():
            if member is not requester and member.used > member.capacity:
                member._maybe_spill()


class CreditShareGroup(ShareGroup):
    """One staging rank's credit budget, shared across tenants."""

    def __init__(self, rank: int, capacity: float):
        super().__init__(capacity)
        self.rank = rank

    def _usage(self, member) -> float:
        return member.outstanding


class TenantBufferPool(BufferPool):
    """A tenant's carve of one staging node's buffer pool.

    Behaves exactly like a private :class:`BufferPool` of ``capacity``
    = the carve (watermarks and spill relative to the carve), plus the
    group-aware spill rule: bytes borrowed beyond the carve are shed as
    soon as any sibling tenant queues for the same physical budget.
    """

    def _should_spill(self) -> bool:
        if super()._should_spill():
            return True
        return (
            self.group is not None
            and self._used > self.capacity
            and self.group.has_queued(exclude=self)
        )


class StagingFleet:
    """The shared staging substrate N tenant pipelines land on.

    Owns one :class:`NodeShareGroup` per staging node and one
    :class:`CreditShareGroup` per staging rank, sized exactly as the
    single-tenant :class:`~repro.flow.FlowControl` would size its pools
    and banks; tenant flow objects register their carves here.  Also
    carries a :class:`~repro.flow.pressure.PressureController` over the
    node groups — the fleet-level severity signal the preemption
    governor polls.
    """

    def __init__(
        self,
        env: Engine,
        machine: Machine,
        config: FlowConfig,
        *,
        staging_rank_nodes: list[int],
        weights: dict[str, float],
    ):
        if not weights:
            raise ValueError("need at least one tenant weight")
        bad = sorted(t for t, w in weights.items() if w <= 0)
        if bad:
            raise ValueError(f"non-positive fair-share weight(s) for {bad}")
        self.env = env
        self.machine = machine
        self.config = config
        self.staging_rank_nodes = list(staging_rank_nodes)
        self.weights = dict(weights)
        self.total_weight = sum(self.weights.values())
        #: node id -> NodeShareGroup
        self.node_groups: dict[int, NodeShareGroup] = {}
        for node_id in dict.fromkeys(self.staging_rank_nodes):
            node = machine.node(node_id)
            capacity = min(
                config.pool_bytes
                if config.pool_bytes is not None
                else node.config.memory_bytes,
                node.config.memory_bytes,
            )
            self.node_groups[node_id] = NodeShareGroup(node_id, capacity, config)
        ranks_per_node = Counter(self.staging_rank_nodes)
        #: staging rank -> CreditShareGroup
        self.credit_groups: dict[int, CreditShareGroup] = {}
        for rank, node_id in enumerate(self.staging_rank_nodes):
            capacity = (
                config.credit_bytes
                if config.credit_bytes is not None
                else self.node_groups[node_id].capacity / ranks_per_node[node_id]
            )
            self.credit_groups[rank] = CreditShareGroup(rank, capacity)
        # Fleet-level severity: the node groups quack like pools
        # (used/low/high/capacity), so the standard controller reads
        # physical occupancy across all tenants at once.
        self.pressure = PressureController(
            env, self.node_groups, config, machine.spec.node.memory_bandwidth
        )

    def share(self, tenant: str) -> float:
        """*tenant*'s fair-share fraction of every fleet budget."""
        return self.weights[tenant] / self.total_weight

    def severity(self) -> float:
        """Worst pool pressure across the fleet, in [0, 1]."""
        return max(
            (self.pressure.severity(nid) for nid in self.node_groups), default=0.0
        )


class TenantFlowControl(FlowControl):
    """One tenant's flow-control facade over the shared fleet.

    Identical wiring to :class:`~repro.flow.FlowControl` except that
    the pools and banks it builds are the tenant's weighted carves,
    registered with the fleet's share groups for work-conserving
    borrow and the global spill policy.
    """

    def __init__(
        self,
        env: Engine,
        machine: Machine,
        config: FlowConfig,
        *,
        staging_rank_nodes: list[int],
        tenant: str,
        fleet: StagingFleet,
    ):
        # set before super().__init__: the base constructor calls the
        # _make_pool/_make_bank hooks below
        self.tenant = tenant
        self.fleet = fleet
        super().__init__(env, machine, config, staging_rank_nodes=staging_rank_nodes)

    def _make_pool(self, node_id: int) -> BufferPool:
        group = self.fleet.node_groups[node_id]
        pool = TenantBufferPool(
            self.env,
            self.machine.node(node_id),
            self.machine.filesystem,
            self.config,
            capacity=group.capacity * self.fleet.share(self.tenant),
        )
        pool.labels = {"tenant": self.tenant}
        group.register(self.tenant, pool)
        return pool

    def _make_bank(self, rank: int, capacity: float) -> CreditBank:
        group = self.fleet.credit_groups[rank]
        bank = CreditBank(
            self.env,
            rank,
            group.capacity * self.fleet.share(self.tenant),
            self.config,
        )
        bank.labels = {"tenant": self.tenant}
        group.register(self.tenant, bank)
        return bank
