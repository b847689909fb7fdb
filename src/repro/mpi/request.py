"""Nonblocking-communication request handles."""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.engine import Event

__all__ = ["Request"]


class Request:
    """Handle for a nonblocking send/receive.

    Mirrors mpi4py's ``Request``: :meth:`wait` blocks the calling
    process (``yield from req.wait()``), :meth:`test` polls.
    """

    def __init__(self, event: Event):
        self._event = event

    def test(self) -> bool:
        """True once the operation has completed."""
        return self._event.triggered

    def wait(self) -> Generator:
        """Process body: wait for completion and return the result."""
        result = yield self._event
        return result

    @staticmethod
    def wait_all(env, requests: list["Request"]) -> Generator:
        """Process body: wait for every request; returns list of results."""
        results = []
        for req in requests:
            value = yield req._event
            results.append(value)
        return results
