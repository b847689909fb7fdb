"""Imperative ADIOS-style write API (open / write / close).

The shape application code actually uses (cf. ADIOS's Fortran/C API):

    adios = Adios(parse_config(xml), machine, predata=predata)
    ...
    fh = adios.open("particles", comm, step)
    fh.write("ntotal", n)
    fh.write("electrons", particles)
    visible = yield from fh.close()      # transport does the rest

``close()`` assembles the :class:`~repro.adios.group.OutputStep`,
validates it against the declared group, and hands it to whichever
transport the config selected — the application never references the
transport, which is the §IV.A integration property.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.adios.config import AdiosConfig, ConfigError, make_transport
from repro.adios.group import ChunkMeta, OutputStep, VarKind
from repro.adios.io import IOMethod
from repro.mpi.communicator import Communicator

__all__ = ["Adios", "AdiosFile"]


class AdiosFile:
    """One process's open output handle for one group/step."""

    def __init__(
        self,
        adios: "Adios",
        group_name: str,
        comm: Communicator,
        step: int,
    ):
        self._adios = adios
        self.group = adios.config.group(group_name)
        self.comm = comm
        self.step = step
        self._values: dict[str, Any] = {}
        self._chunks: dict[str, ChunkMeta] = {}
        self._closed = False

    def write(
        self,
        var: str,
        value: Any,
        *,
        global_dims: Optional[tuple[int, ...]] = None,
        offsets: Optional[tuple[int, ...]] = None,
    ) -> None:
        """Stage one variable's value for this step.

        Global-array variables require ``global_dims`` and ``offsets``
        (the chunk's placement), matching ``adios_write``'s usage.
        """
        if self._closed:
            raise ConfigError("write() after close()")
        vdef = self.group.var(var)  # raises KeyError for unknown vars
        if vdef.kind is VarKind.GLOBAL_ARRAY:
            if global_dims is None or offsets is None:
                raise ConfigError(
                    f"global array {var!r} needs global_dims and offsets"
                )
            self._chunks[var] = ChunkMeta(tuple(global_dims), tuple(offsets))
        elif global_dims is not None or offsets is not None:
            raise ConfigError(
                f"{var!r} is not a global array; placement not allowed"
            )
        if vdef.kind is not VarKind.SCALAR:
            value = np.asarray(value)
            if value.ndim != vdef.ndim:
                raise ConfigError(
                    f"{var!r}: rank {value.ndim} != declared {vdef.ndim}"
                )
        self._values[var] = value

    def close(self) -> Generator:
        """Process body: flush through the configured transport.

        Returns the visible (blocking) seconds, like ``adios_close``.
        """
        if self._closed:
            raise ConfigError("close() called twice")
        self._closed = True
        step = OutputStep(
            group=self.group,
            step=self.step,
            rank=self.comm.rank,
            values=self._values,
            chunks=self._chunks,
        )
        transport = self._adios.transport_for(self.group.name)
        t = yield from transport.write_step(self.comm, step)
        return t


class Adios:
    """The per-application ADIOS instance (config + transports)."""

    def __init__(self, config: AdiosConfig, machine, *, predata=None):
        self.config = config
        self.machine = machine
        self.predata = predata
        self._transports: dict[str, IOMethod] = {}

    def transport_for(self, group_name: str) -> IOMethod:
        """The (cached) transport instance configured for *group_name*."""
        t = self._transports.get(group_name)
        if t is None:
            t = make_transport(
                self.config, group_name, self.machine, predata=self.predata
            )
            self._transports[group_name] = t
        return t

    def open(self, group_name: str, comm: Communicator, step: int) -> AdiosFile:
        """Open a write handle for one group/step on this rank."""
        return AdiosFile(self, group_name, comm, step)

    def finalize(self) -> None:
        """Flush every transport's accumulated files."""
        for t in self._transports.values():
            t.finalize()
