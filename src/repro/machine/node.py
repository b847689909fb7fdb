"""Compute / staging node model: cores and memory accounting.

A :class:`Node` owns a core :class:`~repro.sim.resources.Resource` and a
byte-granular memory ledger.  PreDatA's streaming constraint (§IV.C —
staging nodes cannot buffer a whole output step) is enforced through
:meth:`Node.allocate`, which raises :class:`MemoryError_` when a buffer
request exceeds the node's remaining memory.

Compute work is expressed in *flop* so that the same operator code can
be timed on nodes with different per-core speeds (XT4 Budapest vs XT5
Barcelona cores).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.sim.engine import Engine
from repro.sim.resources import Resource

__all__ = ["NodeConfig", "Node", "MemoryError_", "NodeFailure"]


class MemoryError_(RuntimeError):
    """A buffer allocation exceeded node memory.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class NodeFailure(RuntimeError):
    """A node crashed (fault injection).

    Raised when work is submitted to a dead node, and used as the
    interrupt *cause* when processes running on a crashing node are
    killed by the resilience controller.
    """

    def __init__(self, node_id: int):
        super().__init__(f"node {node_id} has failed")
        self.node_id = node_id


@dataclass(frozen=True)
class NodeConfig:
    """Per-node hardware parameters.

    Defaults match an XT5 node: 2x quad-core Opteron 2356 @ 2.3 GHz,
    16 GB DDR2-800.
    """

    cores: int = 8
    core_flops: float = 9.2e9  # 2.3 GHz * 4-wide FP
    memory_bytes: float = 16 * 2**30
    memory_bandwidth: float = 12.8e9  # bytes/s, DDR2-800 dual channel

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("node needs at least one core")
        if min(self.core_flops, self.memory_bytes, self.memory_bandwidth) <= 0:
            raise ValueError("node parameters must be positive")


class Node:
    """One machine node.

    Parameters
    ----------
    env: simulation engine.
    node_id: topology id.
    config: hardware parameters.
    role: ``"compute"`` or ``"staging"`` (bookkeeping only).
    """

    def __init__(
        self,
        env: Engine,
        node_id: int,
        config: Optional[NodeConfig] = None,
        role: str = "compute",
    ):
        self.env = env
        self.id = node_id
        self.config = config or NodeConfig()
        self.role = role
        self.cores = Resource(env, self.config.cores)
        self._mem_used = 0.0
        self._mem_high_water = 0.0
        self.busy_seconds = 0.0  # accumulated core-seconds of work
        self.alive = True
        self.failed_at: Optional[float] = None
        self._failure_listeners: list = []

    # -- failure ----------------------------------------------------------
    def add_failure_listener(self, callback) -> None:
        """Register ``callback(node)`` to run when :meth:`fail` fires."""
        self._failure_listeners.append(callback)

    def fail(self) -> None:
        """Kill this node (fault injection hook).

        Marks the node dead, records the crash time, and invokes the
        registered failure listeners (e.g. the resilience controller,
        which interrupts staging processes hosted here).  Idempotent.
        """
        if not self.alive:
            return
        self.alive = False
        self.failed_at = self.env.now
        for cb in list(self._failure_listeners):
            cb(self)

    # -- memory -----------------------------------------------------------
    @property
    def memory_used(self) -> float:
        return self._mem_used

    @property
    def memory_free(self) -> float:
        return self.config.memory_bytes - self._mem_used

    @property
    def memory_high_water(self) -> float:
        """Peak bytes ever allocated simultaneously."""
        return self._mem_high_water

    def allocate(self, nbytes: float) -> None:
        """Reserve *nbytes* of node memory or raise :class:`MemoryError_`."""
        if nbytes < 0:
            raise ValueError("allocation must be non-negative")
        if self._mem_used + nbytes > self.config.memory_bytes:
            raise MemoryError_(
                f"node {self.id}: requested {nbytes:.3e} B with only "
                f"{self.memory_free:.3e} B free of {self.config.memory_bytes:.3e} B"
            )
        self._mem_used += nbytes
        self._mem_high_water = max(self._mem_high_water, self._mem_used)

    def free(self, nbytes: float) -> None:
        """Return *nbytes* to the ledger."""
        if nbytes < 0:
            raise ValueError("free must be non-negative")
        # Relative tolerance: the ledger is floating point, so
        # alloc/free cycles accumulate rounding drift that scales with
        # the magnitudes involved — an absolute epsilon rejects
        # legitimate frees of multi-GB buffers whose sizes were
        # computed along different arithmetic paths.
        tol = max(1e-6, 1e-9 * nbytes)
        if nbytes > self._mem_used + tol:
            raise RuntimeError(
                f"node {self.id}: freeing {nbytes:.3e} B but only "
                f"{self._mem_used:.3e} B allocated"
            )
        self._mem_used = max(0.0, self._mem_used - nbytes)

    # -- compute ------------------------------------------------------------
    def compute_time(self, flops: float, *, cores: int = 1) -> float:
        """Seconds to execute *flops* using *cores* cores."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        cores = min(cores, self.config.cores)
        return flops / (self.config.core_flops * cores)

    def memory_scan_time(self, nbytes: float) -> float:
        """Seconds to stream *nbytes* through the memory system."""
        return nbytes / self.config.memory_bandwidth

    def compute(self, flops: float, *, cores: int = 1) -> Generator:
        """Process body: occupy *cores* cores for the work duration.

        The core grant is atomic (all-or-nothing), so concurrent
        multi-core jobs on one node queue instead of deadlocking.
        """
        if not self.alive:
            raise NodeFailure(self.id)
        duration = self.compute_time(flops, cores=cores)
        cores = min(cores, self.config.cores)
        req = self.cores.request(cores)
        try:
            yield req
        except BaseException:
            # Interrupted while queued (or just granted): withdraw the
            # request so abandoned grants cannot leak core capacity.
            self.cores.cancel(req, cores)
            raise
        try:
            yield self.env.timeout(duration)
            self.busy_seconds += duration * cores
        finally:
            self.cores.release(cores)
        return duration

    def __repr__(self) -> str:
        return f"Node(id={self.id}, role={self.role!r}, cores={self.config.cores})"
