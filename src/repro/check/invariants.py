"""Pipeline conservation invariants (the ``env.check`` sink).

A :class:`Checker` binds to an engine exactly like the observability
sink: ``Checker().bind(engine)`` sets ``engine.check``, and every
accounting site across client/scheduler/staging/flow/faults guards on
``env.check is not None`` — off by default, byte-identical when
disabled, and a pure observer when enabled (hooks only mutate checker
state, never the simulation).

Invariants verified at drain:

1. **Chunk conservation** — every packed partial data chunk is
   fetched-and-mapped or degraded-replayed at least once; *exactly*
   once when no fault, restart or retry was recorded (failovers
   legitimately re-fetch).
2. **Byte ledger** — bytes packed == bytes mapped + bytes degraded,
   accounted per chunk key across failovers.
3. **Credit ledger** — every granted byte credit is released by drain
   (and, when the run's :class:`~repro.flow.FlowControl` is supplied,
   its banks and pools read zero).
4. **Memory ledger** — compute-side buffers all committed and node
   memory ledgers back to zero at drain.
5. **Scheduling rule** (§IV.A) — no RDMA fetch is admitted while its
   source compute node is inside a declared collective-communication
   window, except through the scheduler's explicit ``max_defer``
   anti-starvation override (recorded as *forced*).

Call :meth:`Checker.verify` after the run drains; it raises
:class:`InvariantViolation` listing every broken invariant.
"""

from __future__ import annotations

from collections import Counter

__all__ = ["Checker", "InvariantViolation"]

#: relative slack for float byte ledgers
_REL_TOL = 1e-9


class InvariantViolation(AssertionError):
    """One or more pipeline invariants failed; message lists them all."""


class Checker:
    """Conservation-invariant recorder for one simulation run."""

    def __init__(self):
        self.env = None
        #: chunk key -> packed logical bytes (write-path packing)
        self.packed: dict = {}
        #: chunk key -> completed RDMA fetches
        self.fetched: Counter = Counter()
        #: chunk key -> Map completions on the staging side
        self.mapped: Counter = Counter()
        #: chunk key -> degraded/synchronous-fallback dispositions
        self.degraded: Counter = Counter()
        #: chunk key -> commits (buffer releases)
        self.committed: Counter = Counter()
        #: outstanding credit grants: key -> (staging rank, nbytes)
        self.credits_open: dict = {}
        self.credit_grants = 0
        self.credit_releases = 0
        #: movement admissions: (node_id, in_comm_phase, forced)
        self.admissions: list[tuple[int, bool, bool]] = []
        self.forced_admissions = 0
        #: step re-executions forced by recovery, per staging rank
        self.restarts: Counter = Counter()
        #: injected faults: (kind, detail)
        self.faults: list[tuple[str, object]] = []
        #: fetch retries recorded by the resilient fetch path
        self.retries = 0

    # -- binding ----------------------------------------------------------
    def bind(self, env) -> "Checker":
        """Attach to *env* as its ``check`` sink; returns self."""
        self.env = env
        env.check = self
        return self

    # -- hook API (every call is a pure recording) ------------------------
    def on_packed(self, key, nbytes: float, node_id: int) -> None:
        """Client packed chunk *key* (*nbytes* logical) on *node_id*."""
        self.packed[key] = float(nbytes)

    def on_fetched(self, key, nbytes: float) -> None:
        """A staging-side RDMA fetch of chunk *key* completed."""
        self.fetched[key] += 1

    def on_mapped(self, key, nbytes: float) -> None:
        """Chunk *key* finished its Map pass on a staging process."""
        self.mapped[key] += 1

    def on_degraded(self, key, nbytes: float) -> None:
        """Chunk *key* took the synchronous fallback (degraded) path."""
        self.degraded[key] += 1

    def on_committed(self, key) -> None:
        """The compute-side buffer of chunk *key* was released."""
        self.committed[key] += 1

    def on_credit_granted(self, key, nbytes: float, rank: int) -> None:
        """Flow control granted *nbytes* of credit for *key* to *rank*."""
        self.credits_open[key] = (rank, float(nbytes))
        self.credit_grants += 1

    def on_credit_released(self, key, rank: int) -> None:
        """The credit grant for chunk *key* was returned to the bank."""
        self.credits_open.pop(key, None)
        self.credit_releases += 1

    def on_movement_admitted(
        self, node_id: int, *, in_phase: bool, forced: bool
    ) -> None:
        """Scheduler admitted a fetch from *node_id* (§IV.A rule)."""
        self.admissions.append((node_id, in_phase, forced))
        if forced:
            self.forced_admissions += 1

    def on_restart(self, rank: int, step: int) -> None:
        """Recovery forced staging rank *rank* to re-execute *step*."""
        self.restarts[rank] += 1

    def on_retry(self, key, attempt: int) -> None:
        """The resilient fetch path retried chunk *key* (*attempt*-th)."""
        self.retries += 1

    def on_fault(self, kind: str, detail) -> None:
        """The injector fired a fault of *kind* (run is now perturbed)."""
        self.faults.append((kind, detail))

    # -- verification ------------------------------------------------------
    @property
    def perturbed(self) -> bool:
        """True when faults/restarts/retries may legally duplicate work."""
        return bool(self.faults) or bool(self.restarts) or self.retries > 0

    def violations(self, predata=None) -> list[str]:
        """Every broken invariant, as human-readable one-liners.

        ``predata`` (optional :class:`~repro.core.middleware.PreDatA`)
        adds live end-state checks: outstanding compute buffers, flow
        credit banks/pools, and node memory ledgers.
        """
        out: list[str] = []
        exact = not self.perturbed

        # 1 + 2: chunk and byte conservation ------------------------------
        bytes_packed = sum(self.packed.values())
        bytes_accounted = 0.0
        for key, nbytes in sorted(self.packed.items()):
            n_map = self.mapped.get(key, 0)
            n_deg = self.degraded.get(key, 0)
            if n_map + n_deg == 0:
                out.append(
                    f"chunk {key}: packed {nbytes:g} B but never mapped "
                    "nor degraded (lost dump)"
                )
                continue
            bytes_accounted += nbytes
            if exact and n_map + n_deg != 1:
                out.append(
                    f"chunk {key}: disposed {n_map + n_deg}x "
                    f"(mapped {n_map}, degraded {n_deg}) in a fault-free "
                    "run — expected exactly once"
                )
            if exact and self.fetched.get(key, 0) > 1:
                out.append(
                    f"chunk {key}: fetched {self.fetched[key]}x in a "
                    "fault-free run — expected exactly once"
                )
        if abs(bytes_packed - bytes_accounted) > _REL_TOL * max(bytes_packed, 1.0):
            out.append(
                f"byte ledger: {bytes_packed:g} B packed but only "
                f"{bytes_accounted:g} B mapped-or-degraded"
            )
        for key in sorted(self.mapped, key=repr):
            if key not in self.packed:
                out.append(f"chunk {key}: mapped but never packed")

        # 3: credit ledger -------------------------------------------------
        if self.credits_open:
            leaked = ", ".join(
                f"{k!r}->{rank}:{nb:g}B"
                for k, (rank, nb) in sorted(self.credits_open.items(), key=repr)
            )
            out.append(
                f"credit ledger: {len(self.credits_open)} grant(s) never "
                f"released at drain ({leaked})"
            )

        # 5: scheduling rule ----------------------------------------------
        for node_id, in_phase, forced in self.admissions:
            if in_phase and not forced:
                out.append(
                    f"scheduling: RDMA fetch admitted inside node "
                    f"{node_id}'s communication window without the "
                    "max_defer override"
                )

        # live end-state (needs the facade) -------------------------------
        if predata is not None:
            out.extend(self._end_state_violations(predata))
        return out

    def _end_state_violations(self, predata) -> list[str]:
        out: list[str] = []
        client = predata.client
        if client.outstanding_buffers:
            out.append(
                f"memory ledger: {client.outstanding_buffers} compute-side "
                "buffer(s) never released at drain"
            )
        flow = getattr(predata, "flow", None)
        if flow is not None:
            outstanding = flow.outstanding_credit_bytes()
            if outstanding > _REL_TOL:
                out.append(
                    f"credit ledger: flow banks still hold {outstanding:g} B "
                    "at drain"
                )
            for node_id, pool in sorted(flow.pools.items()):
                if pool.used > _REL_TOL * max(pool.capacity, 1.0):
                    out.append(
                        f"memory ledger: buffer pool of node {node_id} "
                        f"still holds {pool.used:g} B at drain"
                    )
        machine = getattr(predata, "machine", None)
        if machine is not None:
            for node_id in machine.staging_node_ids:
                node = machine.node(node_id)
                used = node.memory_used
                if used > _REL_TOL * node.config.memory_bytes:
                    out.append(
                        f"memory ledger: staging node {node_id} ledger "
                        f"reads {used:g} B at drain (expected 0)"
                    )
        return out

    def verify(self, predata=None) -> None:
        """Raise :class:`InvariantViolation` if any invariant is broken."""
        broken = self.violations(predata)
        if broken:
            raise InvariantViolation(
                f"{len(broken)} pipeline invariant(s) violated:\n  - "
                + "\n  - ".join(broken)
            )

    def summary(self) -> str:
        """One-line accounting overview for CLI output."""
        return (
            f"{len(self.packed)} chunk(s) packed, "
            f"{sum(self.mapped.values())} mapped, "
            f"{sum(self.degraded.values())} degraded, "
            f"{self.credit_grants} credit grant(s)/"
            f"{self.credit_releases} release(s), "
            f"{len(self.admissions)} movement admission(s) "
            f"({self.forced_admissions} forced), "
            f"{sum(self.restarts.values())} restart(s), "
            f"{len(self.faults)} fault(s)"
        )

    def __repr__(self) -> str:
        return f"Checker({self.summary()})"
