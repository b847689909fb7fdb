"""Simulated MPI on the discrete-event machine model.

Because the evaluation machine (Cray XT) and a real MPI stack are not
available, this package provides an MPI-like layer whose *data plane is
real* — the numpy arrays and Python objects a rank sends are what its
peers receive, by reference and read-only (see
:mod:`repro.mpi.communicator`) — while the *time plane* comes from the
:mod:`repro.machine` interconnect model.

A :class:`~repro.mpi.world.World` is one MPI job: a list of ranks, each
mapped to a machine node (several ranks may share a node, like the
staging area's 2 processes/node configuration in §V.B).  Rank code is
written as generators that ``yield from`` communicator calls::

    def main(comm):
        data = np.arange(100.0) * comm.rank
        total = yield from comm.allreduce(data.sum())
        ...

    world = World(env, network, rank_nodes=[0, 1, 2, 3])
    world.spawn(main)
    env.run()

Matching the paper, the staging area runs as a *separate* World from
the simulation (§IV.C: "The staging area is running as a separate MPI
program launched independently from the simulation").
"""

from repro.mpi.ops import MAX, MIN, PROD, SUM, Op
from repro.mpi.request import Request
from repro.mpi.communicator import ANY_SOURCE, ANY_TAG, Communicator
from repro.mpi.world import World
from repro.mpi.datasize import nbytes_of

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "MAX",
    "MIN",
    "Op",
    "PROD",
    "Request",
    "SUM",
    "World",
    "nbytes_of",
]
