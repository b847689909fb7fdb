"""Rank-side communicator API for the simulated MPI layer.

One :class:`Communicator` instance exists per rank (an *endpoint* onto
the shared :class:`~repro.mpi.world.World`).  Its communication calls
are the six collectives the paper's programs make — ``barrier``,
``bcast``, ``reduce``, ``allreduce``, ``allgather`` and ``alltoall`` —
each a generator intended for ``yield from`` inside a rank process.
There is no point-to-point: chunks move by RDMA get through
:mod:`repro.core.client`, never by MPI send.

Collective semantics: the *n*-th collective call made by each rank of a
world is matched with the *n*-th call of every other rank (SPMD
discipline).  A rank calling a different collective kind at the same
sequence index is reported as a :class:`~repro.sim.engine.SimulationError`
— the simulated analogue of an MPI mismatch hang.  Each call here is a
one-rank arrival at :meth:`World.collective
<repro.mpi.world.World.collective>`, the one matching path, where one
process may also bring several ranks at once.

``wire_scale``: ``bcast``, ``reduce``, ``allreduce``, ``allgather`` and
``alltoall`` take a keyword-only ``wire_scale`` that replaces the world's
for that call, so a rank sends a payload as small as what it reads and
names the logical volume apart: the call is timed exactly like the
unscaled one on a payload ``wire_scale`` times larger.  All ranks of a
call pass the same value.

All-to-all is sparse: a rank passes ``{dst: payload}`` for the
destinations it sends to and receives ``{src: payload}`` from the ranks
that sent it something, in ascending ``src``.  An absent destination
costs nothing to build, wrap or match, and is priced as the empty list
it stands for (16 bytes): the exchange is timed as the dense one in
which every absent slot is ``[]``.

Aliasing: payloads travel by reference.  An ``ndarray`` that reaches a
rank — a collective's result, or one held directly in a list, tuple or
all-to-all dict result — is a read-only view, since other ranks may
hold the same buffer; ``.copy()`` it to mutate.  The ranks of one
collective share one read-only view of each array (every rank of a
``bcast`` or ``allreduce`` receives the same object), made once per
collective.  A list result is each arrival's own container (a one-rank
arrival's: the rank's), a C-level copy of the one read-only list; an
all-to-all dict is each rank's own.  No call writes into, or changes
the flags of, an object its caller passed in.
"""

from __future__ import annotations

from typing import Any, Generator, Mapping, Optional

import numpy as np

__all__ = ["Communicator"]


def _readonly_array(obj: Any, views: dict[int, np.ndarray]) -> Any:
    """*obj*, or the read-only view of it when it is an ``ndarray``.

    *views* maps ``id(array)`` to the view already made of it, so that
    every rank of one collective receives the same view.
    """
    if not isinstance(obj, np.ndarray):
        return obj
    view = views.get(id(obj))
    if view is None:
        view = views[id(obj)] = obj.view()
        view.flags.writeable = False
    return view


def _readonly(obj: Any, views: dict[int, np.ndarray]) -> Any:
    """*obj* as a receiving rank sees it (module docstring, "Aliasing"):
    an array, or each array held directly in a list or tuple, read-only."""
    if type(obj) in (list, tuple):
        return type(obj)(_readonly_array(v, views) for v in obj)
    return _readonly_array(obj, views)


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
    def sleep(self, seconds: float) -> Generator:
        """Process body: idle for *seconds* of simulated time."""
        yield self.env.timeout(seconds)

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
        self, value: Any, root: int = 0, *, wire_scale: Optional[float] = None
    ) -> Generator:
        """Process body: returns the sum on *root*, None elsewhere."""
        return self._collective("reduce", value, wire_scale, root=root)

    def allreduce(
        self, value: Any, *, wire_scale: Optional[float] = None
    ) -> Generator:
        """Process body: the sum, landing on every rank."""
        return self._collective("allreduce", value, wire_scale)

    def allgather(
        self, value: Any, *, wire_scale: Optional[float] = None
    ) -> Generator:
        """Process body: every rank receives [v_0 .. v_{p-1}]."""
        return self._collective("allgather", value, wire_scale)

    def alltoall(
        self, values: Mapping[int, Any], *, wire_scale: Optional[float] = None
    ) -> Generator:
        """Process body: sparse personalised exchange.

        Each rank passes ``{dst: payload}``; rank *i* receives
        ``{src: values_src[i]}`` over the ranks that sent it something,
        in ascending ``src`` (module docstring).
        """
        for dst in values:
            if not 0 <= dst < self.size:
                raise ValueError(
                    f"alltoall destination {dst} outside world of size {self.size}"
                )
        return self._collective("alltoall", dict(values), wire_scale)

    def _collective(
        self, kind: str, payload: Any, wire_scale: Optional[float] = None, **kwargs
    ) -> Generator:
        """Process body: this rank's arrival, the one-rank case of
        :meth:`World.collective <repro.mpi.world.World.collective>`."""
        (result,) = yield from self.world.collective(
            (self.rank,), kind, (payload,), wire_scale=wire_scale, **kwargs
        )
        return result

    # -- misc -----------------------------------------------------------------
    def __repr__(self) -> str:
        return f"Communicator(world={self.world.name!r}, rank={self.rank})"
