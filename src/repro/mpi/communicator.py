"""Rank-side communicator API for the simulated MPI layer.

One :class:`Communicator` instance exists per rank (an *endpoint* onto
the shared :class:`~repro.mpi.world.World`).  All communication calls
are generators intended for ``yield from`` inside rank processes.

Collective semantics: the *n*-th collective call made by each rank of a
world is matched with the *n*-th call of every other rank (SPMD
discipline).  A rank calling a different collective kind at the same
sequence index is reported as a :class:`~repro.sim.engine.SimulationError`
— the simulated analogue of an MPI mismatch hang.

``wire_scale``: ``bcast``, ``reduce``, ``allreduce``, ``allgather`` and
``alltoall`` take a keyword-only ``wire_scale`` that replaces the world's
for that call, so a rank sends a payload as small as what it reads and
names the logical volume apart: the call is timed exactly like the
unscaled one on a payload ``wire_scale`` times larger.  All ranks of a
call pass the same value.

Aliasing: payloads travel by reference.  An ``ndarray`` that reaches a
rank — a collective's result, one held directly in a list or tuple
result, a received message — is a read-only view, since other ranks may
hold the same buffer; ``.copy()`` it to mutate.  The ranks of one
collective share one read-only view of each array in its result (every
rank of a ``bcast`` or ``allreduce`` receives the same object), while a
list or tuple result is each rank's own container.  No call writes into,
or changes the flags of, an object its caller passed in.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

import numpy as np

from repro.mpi.datasize import nbytes_of
from repro.mpi.ops import Op, SUM
from repro.mpi.request import Request
from repro.sim.engine import SimulationError
from repro.sim.resources import Mailbox

__all__ = ["Communicator", "ANY_SOURCE", "ANY_TAG"]

ANY_SOURCE = Mailbox.ANY
ANY_TAG = Mailbox.ANY


def _readonly(obj: Any, views: dict[int, np.ndarray]) -> Any:
    """*obj* as a receiving rank sees it (module docstring, "Aliasing").

    *views* maps ``id(array)`` to the read-only view already made of it,
    so that every rank of one collective receives the same view.
    """
    if isinstance(obj, np.ndarray):
        view = views.get(id(obj))
        if view is None:
            view = views[id(obj)] = obj.view()
            view.flags.writeable = False
        return view
    if type(obj) in (list, tuple):
        return type(obj)(
            _readonly(v, views) if isinstance(v, np.ndarray) else v for v in obj
        )
    return obj


class Communicator:
    """The per-rank face of a :class:`~repro.mpi.world.World`."""

    def __init__(self, world: "World", rank: int):  # noqa: F821
        self.world = world
        self.rank = rank
        self._coll_seq = 0

    # -- identity -------------------------------------------------------
    @property
    def size(self) -> int:
        return self.world.size

    @property
    def env(self):
        return self.world.env

    @property
    def node_id(self) -> int:
        return self.world.rank_nodes[self.rank]

    @property
    def node(self):
        """Machine node this rank runs on (None without node lookup)."""
        return self.world.node_of(self.rank)

    # -- local work -------------------------------------------------------
    def compute(self, flops: float) -> Generator:
        """Process body: burn *flops* on one core of this rank's node."""
        node = self.node
        if node is None:
            # No node model attached: charge time at a nominal 1 Gflop/s.
            yield self.env.timeout(flops / 1e9)
            return flops / 1e9
        t = yield from node.compute(flops)
        return t

    def sleep(self, seconds: float) -> Generator:
        """Process body: idle for *seconds* of simulated time."""
        yield self.env.timeout(seconds)

    # -- point-to-point ----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> Generator:
        """Process body: blocking send (completes when data is delivered)."""
        self._check_peer(dest)
        size = nbytes_of(obj)
        yield from self.world.network.transfer(
            self.node_id, self.world.rank_nodes[dest], size
        )
        self.world.mailbox(dest).deliver(self.rank, tag, _readonly(obj, {}))

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; returns a :class:`Request`."""
        proc = self.env.process(
            self.send(obj, dest, tag), name=f"isend {self.rank}->{dest}"
        )
        return Request(proc)

    def recv(
        self, source: Any = ANY_SOURCE, tag: Any = ANY_TAG
    ) -> Generator:
        """Process body: blocking receive; returns the payload."""
        _src, _tag, payload = yield self.world.mailbox(self.rank).receive(
            source=source, tag=tag
        )
        return payload

    def recv_with_status(
        self, source: Any = ANY_SOURCE, tag: Any = ANY_TAG
    ) -> Generator:
        """Like :meth:`recv` but returns ``(payload, source, tag)``."""
        src, tg, payload = yield self.world.mailbox(self.rank).receive(
            source=source, tag=tag
        )
        return payload, src, tg

    def irecv(self, source: Any = ANY_SOURCE, tag: Any = ANY_TAG) -> Request:
        """Nonblocking receive; ``wait()`` returns the payload."""

        def body():
            payload = yield from self.recv(source, tag)
            return payload

        return Request(self.env.process(body(), name=f"irecv @{self.rank}"))

    # -- collectives --------------------------------------------------------
    def barrier(self) -> Generator:
        """Process body: block until every rank has arrived."""
        return self._collective("barrier", None)

    def bcast(
        self, obj: Any, root: int = 0, *, wire_scale: Optional[float] = None
    ) -> Generator:
        """Process body: returns root's object on every rank."""
        return self._collective("bcast", obj, wire_scale, root=root)

    def reduce(
        self, value: Any, op: Op = SUM, root: int = 0,
        *, wire_scale: Optional[float] = None,
    ) -> Generator:
        """Process body: returns reduction on *root*, None elsewhere."""
        return self._collective("reduce", value, wire_scale, op=op, root=root)

    def allreduce(
        self, value: Any, op: Op = SUM, *, wire_scale: Optional[float] = None
    ) -> Generator:
        """Process body: reduction whose result lands on every rank."""
        return self._collective("allreduce", value, wire_scale, op=op)

    def scan(self, value: Any, op: Op = SUM) -> Generator:
        """Process body: inclusive prefix reduction — rank *r* receives
        ``op(v_0, ..., v_r)`` (the 'prefix sums' of §IV.B's aggregated
        results, e.g. global array offsets from local sizes)."""
        return self._collective("scan", value, op=op)

    def exscan(self, value: Any, op: Op = SUM) -> Generator:
        """Exclusive prefix reduction; rank 0 receives None."""
        return self._collective("exscan", value, op=op)

    def sendrecv(
        self, obj: Any, dest: int, source: Any = ANY_SOURCE,
        sendtag: int = 0, recvtag: Any = ANY_TAG,
    ) -> Generator:
        """Process body: concurrent send + receive (deadlock-free pairwise
        exchange)."""
        req = self.isend(obj, dest, sendtag)
        payload = yield from self.recv(source, recvtag)
        yield from req.wait()
        return payload

    def gather(self, value: Any, root: int = 0) -> Generator:
        """Process body: root receives ``[v_0 .. v_{p-1}]``, others None."""
        return self._collective("gather", value, root=root)

    def allgather(
        self, value: Any, *, wire_scale: Optional[float] = None
    ) -> Generator:
        """Process body: every rank receives [v_0 .. v_{p-1}]."""
        return self._collective("allgather", value, wire_scale)

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0) -> Generator:
        """Process body: rank *i* receives ``values[i]`` supplied by root."""
        return self._collective("scatter", values, root=root)

    def alltoall(
        self, values: Sequence[Any], *, wire_scale: Optional[float] = None
    ) -> Generator:
        """Process body: personalised exchange.

        Each rank passes a length-``size`` sequence; rank *i* receives
        ``[values_0[i], values_1[i], ...]``.
        """
        if len(values) != self.size:
            raise ValueError(
                f"alltoall needs {self.size} payloads, got {len(values)}"
            )
        return self._collective("alltoall", list(values), wire_scale)

    # alltoallv is semantically identical here (payloads may be ragged
    # numpy arrays); provided for API familiarity.
    alltoallv = alltoall

    def _collective(
        self, kind: str, payload: Any, wire_scale: Optional[float] = None, **kwargs
    ) -> Generator:
        if "root" in kwargs:
            self._check_peer(kwargs["root"])
        seq = self._coll_seq
        self._coll_seq += 1
        return (yield from self.world.collective(
            seq, kind, self.rank, payload, wire_scale=wire_scale, **kwargs
        ))

    # -- misc -----------------------------------------------------------------
    def _check_peer(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise SimulationError(
                f"peer rank {rank} outside world of size {self.size}"
            )

    def __repr__(self) -> str:
        return f"Communicator(world={self.world.name!r}, rank={self.rank})"
