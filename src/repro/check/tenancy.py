"""Per-tenant conservation ledgers for the multi-tenant jobs layer.

A :class:`MultiTenantChecker` is a drop-in ``env.check`` sink that
demultiplexes every keyed accounting hook onto one private
:class:`~repro.check.invariants.Checker` per tenant, using the tenant
component of the tenant-qualified chunk keys
(``(tenant, compute_rank, step)``) produced by
:meth:`repro.core.client.StagingClient.key`.

This is what makes the isolation claim *checkable* rather than
asserted: each tenant's chunk/byte/credit/memory ledgers must conserve
**independently** — tenant A draining to zero may not borrow a release
from tenant B's books — and the §IV.A scheduling rule is still
enforced globally across all tenants' movements.

Unkeyed hooks route as follows:

- ``on_movement_admitted`` is recorded globally (a fetch admission is
  legal or not regardless of whose chunk moved);
- ``on_restart`` / ``on_fault`` broadcast to every tenant ledger —
  without a tenant in the signal, conservatively marking all tenants
  perturbed keeps exactly-once checks sound.
"""

from __future__ import annotations

from repro.check.invariants import Checker, InvariantViolation

__all__ = ["MultiTenantChecker"]


class MultiTenantChecker:
    """``env.check`` sink keeping one independent ledger per tenant."""

    def __init__(self, tenants):
        self.env = None
        self.tenants = list(tenants)
        if len(set(self.tenants)) != len(self.tenants):
            raise ValueError(f"duplicate tenant names: {self.tenants}")
        #: tenant -> its private Checker
        self.checkers: dict = {t: Checker() for t in self.tenants}
        #: global movement admissions (§IV.A is tenant-agnostic)
        self.admissions: list[tuple[int, bool, bool]] = []

    # -- binding ----------------------------------------------------------
    def bind(self, env) -> "MultiTenantChecker":
        """Attach to *env* as its ``check`` sink; returns self."""
        self.env = env
        env.check = self
        for checker in self.checkers.values():
            checker.env = env  # sub-checkers see the clock, not the sink
        return self

    def checker(self, tenant) -> Checker:
        """The private ledger of one tenant."""
        return self.checkers[tenant]

    def _route(self, key) -> Checker:
        if not (isinstance(key, tuple) and len(key) == 3):
            raise KeyError(
                f"multi-tenant checker needs (tenant, rank, step) keys, "
                f"got {key!r} — was a client built without tenant=...?"
            )
        checker = self.checkers.get(key[0])
        if checker is None:
            raise KeyError(f"chunk key {key!r} names unknown tenant {key[0]!r}")
        return checker

    # -- keyed hooks (demultiplexed per tenant) ----------------------------
    def on_packed(self, key, nbytes: float, node_id: int) -> None:
        """Route a packed-chunk record to its tenant ledger."""
        self._route(key).on_packed(key, nbytes, node_id)

    def on_fetched(self, key, nbytes: float) -> None:
        """Route a completed-fetch record to its tenant ledger."""
        self._route(key).on_fetched(key, nbytes)

    def on_mapped(self, key, nbytes: float) -> None:
        """Route a Map-completion record to its tenant ledger."""
        self._route(key).on_mapped(key, nbytes)

    def on_degraded(self, key, nbytes: float) -> None:
        """Route a degraded-path record to its tenant ledger."""
        self._route(key).on_degraded(key, nbytes)

    def on_committed(self, key) -> None:
        """Route a buffer-commit record to its tenant ledger."""
        self._route(key).on_committed(key)

    def on_credit_granted(self, key, nbytes: float, rank: int) -> None:
        """Route a credit grant to its tenant ledger."""
        self._route(key).on_credit_granted(key, nbytes, rank)

    def on_credit_released(self, key, rank: int) -> None:
        """Route a credit release to its tenant ledger."""
        self._route(key).on_credit_released(key, rank)

    def on_retry(self, key, attempt: int) -> None:
        """Route a fetch-retry record to its tenant ledger."""
        self._route(key).on_retry(key, attempt)

    # -- unkeyed hooks ------------------------------------------------------
    def on_movement_admitted(
        self, node_id: int, *, in_phase: bool, forced: bool
    ) -> None:
        """Record one movement admission globally (the rule is tenant-agnostic)."""
        self.admissions.append((node_id, in_phase, forced))

    def on_restart(self, rank: int, step: int) -> None:
        """Broadcast a step restart to every tenant ledger."""
        for checker in self.checkers.values():
            checker.on_restart(rank, step)

    def on_fault(self, kind: str, detail) -> None:
        """Broadcast an injected fault to every tenant ledger."""
        for checker in self.checkers.values():
            checker.on_fault(kind, detail)

    # -- verification --------------------------------------------------------
    def violations(self, deployments=None) -> list[str]:
        """Every broken invariant across all tenants, tenant-prefixed.

        ``deployments`` (optional ``{tenant: PreDatA}``) adds the live
        end-state checks — outstanding buffers, that tenant's carved
        flow banks/pools, node ledgers — per tenant.
        """
        deployments = deployments or {}
        out: list[str] = []
        for tenant in self.tenants:
            checker = self.checkers[tenant]
            for line in checker.violations(deployments.get(tenant)):
                out.append(f"tenant {tenant}: {line}")
        for node_id, in_phase, forced in self.admissions:
            if in_phase and not forced:
                out.append(
                    f"scheduling: RDMA fetch admitted inside node "
                    f"{node_id}'s communication window without the "
                    "max_defer override"
                )
        return out

    def verify(self, deployments=None) -> None:
        """Raise :class:`InvariantViolation` listing all broken invariants."""
        broken = self.violations(deployments)
        if broken:
            raise InvariantViolation(
                f"{len(broken)} pipeline invariant(s) violated across "
                f"{len(self.tenants)} tenant(s):\n  - " + "\n  - ".join(broken)
            )

    def __repr__(self) -> str:
        return f"MultiTenantChecker({len(self.tenants)} tenant(s))"
