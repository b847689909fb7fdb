"""The :class:`World`: one simulated MPI job.

A world owns the rank-to-node mapping and the collective matching
engine, whose one entry point, :meth:`World.collective`, takes one
arrival: one rank, or the co-located ranks one process drives, with a
payload each.  Collective timing has one path: every collective among
two or more members is realised through the members' NIC pipes
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
from repro.sim.engine import Engine, Event, SimulationError

__all__ = ["World"]


class _CollectiveState:
    """Matching state for one collective sequence index."""

    __slots__ = ("kind", "payloads", "arrivals", "kwargs", "done", "started")

    def __init__(self, kind: str, kwargs: dict, done: Event):
        self.kind = kind
        #: rank -> the payload it contributed
        self.payloads: dict[int, Any] = {}
        #: the ranks of each arrival, in arrival order
        self.arrivals: list[Sequence[int]] = []
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
        self, ranks: Sequence[int], kind: str, payloads: Sequence[Any], **kwargs
    ) -> Generator:
        """Process body: one arrival of *ranks* at their next collective.

        The one matching entry point.  *ranks* are co-located ranks that
        one process drives on one clock (a :class:`Communicator` is the
        one-rank case) and *payloads* holds each one's contribution, in
        the same order.  The arrival takes each rank's next sequence
        number, which all of them must share.  Returns what each rank of
        the arrival receives, in the order of *ranks*: a value its ranks
        receive alike is one object, a list result is the arrival's own.
        """
        if "root" in kwargs and not 0 <= kwargs["root"] < self.size:
            raise SimulationError(
                f"root rank {kwargs['root']} outside world of size {self.size}"
            )
        if len(payloads) != len(ranks):
            raise ValueError(
                f"{len(ranks)} ranks arrived with {len(payloads)} payloads"
            )
        comms = self._comms
        seq = comms[ranks[0]]._coll_seq
        for r in ranks:
            if comms[r]._coll_seq != seq:
                raise SimulationError(
                    f"ranks {list(ranks)} of one arrival are at different "
                    f"collectives"
                )
        state = self._collectives.get(seq)
        if state is None:
            state = _CollectiveState(kind, kwargs, self.env.event())
            self._collectives[seq] = state
        elif state.kind != kind:
            raise SimulationError(
                f"collective mismatch at seq {seq}: ranks {list(ranks)} called "
                f"{kind!r} but earlier ranks called {state.kind!r}"
            )
        if not state.payloads.keys().isdisjoint(ranks):
            raise SimulationError(
                f"ranks {list(ranks)} called collective seq {seq} twice"
            )
        for r in ranks:
            comms[r]._coll_seq = seq + 1
        state.payloads.update(zip(ranks, payloads))
        arrival = len(state.arrivals)
        state.arrivals.append(ranks)
        self._maybe_complete(seq, state)
        results = yield state.done
        return results[arrival]

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
        triggers ``state.done``, with one result list per arrival.
        """
        # Identity-guarded: reset_collectives() may have replaced this
        # seq slot with a fresh epoch while the exchange was in flight.
        if self._collectives.get(seq) is state:
            del self._collectives[seq]
        if state.done.triggered:
            return
        try:
            results = self._apply(
                state.kind, state.payloads, state.kwargs, state.arrivals
            )
        except Exception as exc:
            # Propagate semantic errors (e.g. an op that cannot combine
            # the payloads) into every waiting rank instead of
            # deadlocking the world.
            state.done.fail(exc)
            return
        state.done.succeed(results)

    # -- functional semantics ------------------------------------------------------
    def _apply(
        self,
        kind: str,
        payloads: dict[int, Any],
        kwargs: dict,
        arrivals: list[Sequence[int]],
    ) -> list[list]:
        """What each arrival receives: one result per rank it carried.

        A value is made read-only once (module docstring of
        :mod:`repro.mpi.communicator`) and every rank receiving it gets
        that one view.
        """
        # Results are computed over the *active* contributors only, so a
        # collective completed after a failure yields survivor-only data.
        # With no failures this is exactly range(size).  Active ranks only
        # shrink and all had contributed when the exchange started, so
        # they are still a subset of the payloads: the members.
        ranks = self._members
        views: dict[int, np.ndarray] = {}
        if kind == "alltoall":
            return [
                [_readonly([payloads[src][r] for src in ranks], views) for r in arrival]
                for arrival in arrivals
            ]
        if kind == "barrier":
            value = None
        elif kind == "bcast":
            value = payloads[kwargs.get("root", 0)]
        elif kind in ("reduce", "allreduce"):
            value = kwargs["op"].reduce_all([payloads[r] for r in ranks])
        elif kind == "allgather":
            value = [payloads[r] for r in ranks]
        else:
            raise SimulationError(f"unknown collective kind {kind!r}")
        if kind == "reduce":
            root = kwargs.get("root", 0)
            return [
                [_readonly(value, views) if r == root else None for r in arrival]
                for arrival in arrivals
            ]
        return [[_readonly(value, views)] * len(arrival) for arrival in arrivals]

    def _wire_bytes(
        self,
        kind: str,
        payloads: dict[int, Any],
        wire_scale: Optional[float] = None,
    ) -> float:
        """Per-rank wire volume used for timing, from the members' payloads.

        A rank deactivated after it contributed is no member: its data
        is dropped from the result, so it does not size the exchange
        either.  A payload object several ranks contributed (the
        co-located ranks of one arrival) is sized once.
        """
        scale = self.wire_scale if wire_scale is None else wire_scale
        if kind == "barrier":
            return 0.0
        members = {id(p): p for p in map(payloads.__getitem__, self._members)}
        if kind == "alltoall":
            # per-pair bytes at model scale: the largest per-rank total
            # divided by the effective process count.
            per_rank_totals = [
                sum(map(nbytes_of, row)) for row in members.values()
            ]
            return max(per_rank_totals) / max(self.model_size, 1) * scale
        return max(map(nbytes_of, members.values())) * scale

    def __repr__(self) -> str:
        return f"World(name={self.name!r}, size={self.size})"
