"""ADIOS transport methods.

The transport is the pluggable bottom of the ADIOS stack: application
code calls ``yield from transport.write_step(comm, step)`` and never
knows whether bytes went synchronously to the file system (the paper's
In-Compute-Node configuration) or asynchronously to the PreDatA staging
area (the Staging configuration — implemented by
:class:`repro.core.client.StagingTransport`, which subclasses
:class:`IOMethod`).

:class:`SyncMPIIO` models ADIOS's synchronous MPI-IO method: the
process blocks until its process-group record reaches the (shared,
variable-performance) parallel file system.
"""

from __future__ import annotations

from typing import Generator

from repro.adios.bp import BPFile, BPWriter
from repro.adios.group import GroupDef, OutputStep
from repro.machine.filesystem import ParallelFileSystem
from repro.mpi.communicator import Communicator

__all__ = ["IOMethod", "SyncMPIIO"]


class IOMethod:
    """Abstract transport.  Subclasses implement :meth:`write_step`."""

    def write_step(self, comm: Communicator, step: OutputStep) -> Generator:
        """Process body: emit one process's output for one I/O dump.

        Returns the seconds of I/O time *visible* to the caller (the
        blocking time the simulation experiences).
        """
        raise NotImplementedError

    def finalize(self) -> None:
        """Flush/close any files this transport accumulated."""


class SyncMPIIO(IOMethod):
    """Synchronous MPI-IO writes of BP process groups.

    All ranks of the writing communicator share one BP file per group
    (the paper's production configuration).  The blocking time seen by
    each rank is its share of the contended file-system write.

    Parameters
    ----------
    filesystem: the machine's parallel file system.
    collect_data:
        When True (default) functional payloads are retained so the
        resulting :class:`BPFile` can be read back; disable for pure
        timing runs at large rank counts to save host memory.
    """

    def __init__(
        self,
        filesystem: ParallelFileSystem,
        *,
        collect_data: bool = True,
    ):
        self.filesystem = filesystem
        self.collect_data = collect_data
        self._writers: dict[str, BPWriter] = {}
        self._files: dict[str, BPFile] = {}
        self.visible_write_seconds = 0.0

    # -- file registry -----------------------------------------------------
    def writer_for(self, group: GroupDef) -> BPWriter:
        """The (lazily created) BP writer accumulating *group*'s steps."""
        w = self._writers.get(group.name)
        if w is None:
            w = BPWriter(f"{group.name}.bp", group)
            self._writers[group.name] = w
        return w

    def file(self, group_name: str) -> BPFile:
        """The finalized BP file for *group_name* (after finalize())."""
        if group_name not in self._files:
            raise KeyError(
                f"no finalized file for group {group_name!r}; call finalize()"
            )
        return self._files[group_name]

    # -- transport API ----------------------------------------------------
    def write_step(self, comm: Communicator, step: OutputStep) -> Generator:
        start = comm.env.now
        if self.collect_data:
            self.writer_for(step.group).append_step(step)
        # Each rank streams its PG record; the shared aggregate pipe plus
        # per-client cap reproduce both contention regimes.
        yield from self.filesystem.write(step.nbytes_logical)
        elapsed = comm.env.now - start
        self.visible_write_seconds += elapsed
        return elapsed

    def finalize(self) -> None:
        for name, writer in list(self._writers.items()):
            self._files[name] = writer.close()
        self._writers.clear()
