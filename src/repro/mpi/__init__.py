"""Simulated MPI on the discrete-event machine model.

Because the evaluation machine (Cray XT) and a real MPI stack are not
available, this package provides the MPI collectives the paper's
programs call — ``barrier``, ``bcast``, ``reduce``, ``allreduce``,
``allgather`` and ``alltoall`` — with a *real data plane* (the numpy
arrays and Python objects a rank contributes are what its peers
receive, by reference and read-only; see
:mod:`repro.mpi.communicator`) and a *time plane* from the
:mod:`repro.machine` interconnect model.  There is no point-to-point:
the staging area's only MPI traffic is collectives (§IV.C), and chunks
move by RDMA get.

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

Collectives are matched on one path, :meth:`World.collective
<repro.mpi.world.World.collective>`, which takes one *arrival*: the
ranks one process drives on one clock, with one payload each.  A
:class:`~repro.mpi.communicator.Communicator` call is the one-rank
case.  A program whose ranks share a clock from one
collective to the next (Pixie3D, :mod:`repro.apps.pixie3d`) runs one
process for the whole world and makes one arrival per collective for
all of them; it forks one process per rank wherever the ranks' timing
is their own (a dump's writes) and joins them at the next collective.  Sequence
numbers stay per rank, so either form of a rank may make its next call.

Matching the paper, the staging area runs as a *separate* World from
the simulation (§IV.C: "The staging area is running as a separate MPI
program launched independently from the simulation").
"""

from repro.mpi.communicator import Communicator
from repro.mpi.world import World
from repro.mpi.datasize import nbytes_of

__all__ = ["Communicator", "World", "nbytes_of"]
