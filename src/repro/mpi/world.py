"""The :class:`World`: one simulated MPI job.

A world owns the rank-to-node mapping and the collective matching
engine.  Collective timing has one path: every collective among two or
more members is realised through the members' NIC pipes
(:meth:`Network.start_collective`), so concurrent traffic (asynchronous
staging fetches) slows it down — the §V.B.2 interference effect.  Only
what has no wire phase is a timer of :meth:`Network.collective_time`:
a barrier, and any collective of a one-member world, priced for
``model_size`` processes.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from repro.machine.network import Network
from repro.mpi.communicator import Communicator, _readonly
from repro.mpi.datasize import nbytes_of
from repro.mpi.ops import Op
from repro.sim.engine import Engine, Event, SimulationError

__all__ = ["World"]


class _CollectiveState:
    """Matching state for one collective sequence index."""

    __slots__ = ("kind", "payloads", "kwargs", "done", "started")

    def __init__(self, kind: str, kwargs: dict, done: Event):
        self.kind = kind
        self.payloads: dict[int, Any] = {}
        self.kwargs = kwargs
        self.done = done
        self.started = False


class World:
    """A set of MPI ranks mapped onto machine nodes.

    Parameters
    ----------
    env: simulation engine.
    network: interconnect model shared with other worlds on the machine.
    rank_nodes: machine node id for each rank (index = rank).
    name: label for diagnostics.
    node_lookup: optional ``node_id -> Node`` resolver behind
        :attr:`Communicator.node` (pass ``machine.node`` when running
        on a :class:`Machine`).
    wire_scale: multiplier applied to payload sizes for *timing* —
        used when functional payloads are scaled-down stand-ins for
        larger logical data (see ``OutputStep.volume_scale``); a
        collective's own ``wire_scale=`` replaces it for that call.
    model_size: effective process count used by the collective *cost
        models* when the world's ranks are representatives of a larger
        job (e.g. 64 simulated ranks standing in for 16,384).  Latency
        terms scale with ``model_size`` while per-rank wire volume stays
        faithful.  Defaults to the actual size.
    """

    def __init__(
        self,
        env: Engine,
        network: Network,
        rank_nodes: Sequence[int],
        *,
        name: str = "world",
        node_lookup: Optional[Callable[[int], Any]] = None,
        wire_scale: float = 1.0,
        model_size: Optional[int] = None,
    ):
        if wire_scale <= 0:
            raise ValueError("wire_scale must be positive")
        if model_size is not None and model_size < len(rank_nodes):
            raise ValueError("model_size cannot be below the actual size")
        if len(rank_nodes) < 1:
            raise ValueError("world needs at least one rank")
        self.env = env
        self.network = network
        self.rank_nodes = list(rank_nodes)
        self.name = name
        self.wire_scale = wire_scale
        self.model_size = model_size or len(rank_nodes)
        self._node_lookup = node_lookup
        self._collectives: dict[int, _CollectiveState] = {}
        self._comms = [Communicator(self, r) for r in range(len(rank_nodes))]
        self._active: set[int] = set(range(len(rank_nodes)))
        self._set_members()

    # -- structure ---------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.rank_nodes)

    @property
    def active_ranks(self) -> list[int]:
        """Ranks not deactivated by failure, in rank order."""
        return list(self._members)

    def _set_members(self) -> None:
        """Rebuild the sorted active ranks and their nodes.

        Both lists are replaced, never mutated in place: a collective
        already on the wire keeps the node list it started with.
        """
        self._members = sorted(self._active)
        self._member_nodes = [self.rank_nodes[r] for r in self._members]

    # -- failure support ----------------------------------------------------
    def deactivate_rank(self, rank: int) -> None:
        """Remove *rank* from collective matching (its node died).

        Pending collectives that were only waiting on deactivated ranks
        complete among the survivors, so a crash cannot deadlock the
        world.  Payloads already contributed by the dead rank are
        discarded from the functional result (its data is lost).
        """
        if rank not in self._active:
            return
        self._active.discard(rank)
        self._set_members()
        for seq, state in list(self._collectives.items()):
            self._maybe_complete(seq, state)

    def reset_collectives(self) -> None:
        """Drop all pending collective state and restart sequencing.

        Recovery hook: after a failure is detected, surviving staging
        ranks are interrupted mid-step and re-run it from the top, so
        every in-flight collective is abandoned and all ranks must agree
        on a fresh sequence numbering (a new 'epoch').
        """
        self._collectives.clear()
        for c in self._comms:
            c._coll_seq = 0

    def comm(self, rank: int) -> Communicator:
        """The :class:`Communicator` endpoint of *rank*."""
        return self._comms[rank]

    def node_of(self, rank: int):
        """The machine Node hosting *rank* (None without a lookup)."""
        if self._node_lookup is None:
            return None
        return self._node_lookup(self.rank_nodes[rank])

    # -- program launch ------------------------------------------------------
    def spawn(self, main: Callable[[Communicator], Generator], *args, **kwargs):
        """Start ``main(comm, *args, **kwargs)`` on every rank.

        Returns the list of rank processes (each is awaitable).
        """
        return [
            self.env.process(
                main(self._comms[r], *args, **kwargs),
                name=f"{self.name}[{r}]",
            )
            for r in range(self.size)
        ]

    # -- collective engine ------------------------------------------------------
    def collective(
        self, seq: int, kind: str, rank: int, payload: Any, **kwargs
    ) -> Generator:
        """Process body used by :class:`Communicator`; matches calls."""
        state = self._collectives.get(seq)
        if state is None:
            state = _CollectiveState(kind, kwargs, self.env.event())
            self._collectives[seq] = state
        else:
            if state.kind != kind:
                raise SimulationError(
                    f"collective mismatch at seq {seq}: rank {rank} called "
                    f"{kind!r} but earlier ranks called {state.kind!r}"
                )
        if rank in state.payloads:
            raise SimulationError(
                f"rank {rank} called collective seq {seq} twice"
            )
        state.payloads[rank] = payload
        self._maybe_complete(seq, state)
        results = yield state.done
        return results[rank]

    def _maybe_complete(self, seq: int, state: _CollectiveState) -> None:
        """Start the exchange once every *active* rank has arrived."""
        if state.started or not state.payloads or not self._active:
            return
        if not self._active <= state.payloads.keys():
            return
        state.started = True
        kind, payloads = state.kind, state.payloads
        per_rank_bytes = self._wire_bytes(
            kind, payloads, state.kwargs.get("wire_scale")
        )
        finish = partial(self._complete_collective, seq, state)
        # Every active rank has contributed, so the contributors are
        # exactly the members.
        if len(self._members) > 1 and kind != "barrier":
            self.network.start_collective(
                kind,
                self._member_nodes,
                per_rank_bytes,
                finish,
                model_nprocs=self.model_size,
            )
        else:
            self.env.timeout(
                self.network.collective_time(
                    kind, self.model_size, per_rank_bytes
                )
            )._add_callback(lambda _ev: finish())

    def _complete_collective(self, seq: int, state: _CollectiveState) -> None:
        """The exchange is over: apply the semantics, resume the ranks.

        Runs inside an engine callback (possibly a pipe's), so it only
        triggers ``state.done``.  Each array in the result is made
        read-only once, and every rank receives that one view.
        """
        # Identity-guarded: reset_collectives() may have replaced this
        # seq slot with a fresh epoch while the exchange was in flight.
        if self._collectives.get(seq) is state:
            del self._collectives[seq]
        if state.done.triggered:
            return
        try:
            results = self._apply(state.kind, state.payloads, state.kwargs)
        except Exception as exc:
            # Propagate semantic errors (e.g. an op that cannot combine
            # the payloads) into every waiting rank instead of
            # deadlocking the world.
            state.done.fail(exc)
            return
        views: dict[int, np.ndarray] = {}
        for r, value in results.items():
            if value is not None:
                results[r] = _readonly(value, views)
        state.done.succeed(results)

    # -- functional semantics ------------------------------------------------------
    def _apply(self, kind: str, payloads: dict[int, Any], kwargs: dict) -> dict:
        # Results are computed over the *active* contributors only, so a
        # collective completed after a failure yields survivor-only data.
        # With no failures this is exactly range(size).  Active ranks only
        # shrink and all had contributed when the exchange started, so
        # they are still a subset of the payloads: the members.
        ranks = self._members
        if kind == "barrier":
            return {r: None for r in ranks}
        if kind == "bcast":
            root = kwargs.get("root", 0)
            value = payloads[root]
            return {r: value for r in ranks}
        if kind in ("reduce", "allreduce"):
            op: Op = kwargs["op"]
            ordered = [payloads[r] for r in ranks]
            result = op.reduce_all(ordered)
            if kind == "allreduce":
                return {r: result for r in ranks}
            root = kwargs.get("root", 0)
            return {r: (result if r == root else None) for r in ranks}
        if kind == "allgather":
            ordered = [payloads[r] for r in ranks]
            return {r: list(ordered) for r in ranks}
        if kind == "alltoall":
            return {
                r: [payloads[src][r] for src in ranks] for r in ranks
            }
        raise SimulationError(f"unknown collective kind {kind!r}")

    def _wire_bytes(
        self,
        kind: str,
        payloads: dict[int, Any],
        wire_scale: Optional[float] = None,
    ) -> float:
        """Per-rank wire volume used for timing."""
        scale = self.wire_scale if wire_scale is None else wire_scale
        if kind == "barrier":
            return 0.0
        if kind == "alltoall":
            # per-pair bytes at model scale: the largest per-rank total
            # divided by the effective process count.
            per_rank_totals = [
                sum(nbytes_of(el) for el in row) for row in payloads.values()
            ]
            return max(per_rank_totals) / max(self.model_size, 1) * scale
        return max(nbytes_of(v) for v in payloads.values()) * scale

    def __repr__(self) -> str:
        return f"World(name={self.name!r}, size={self.size})"
