"""Lustre-like parallel file system model.

The file system is shared machine-wide: an aggregate-bandwidth fluid
pipe (all concurrent I/O shares it), a per-client streaming cap, object
(OST) striping that limits how much parallelism a single file can
exploit, a metadata-operation latency, and an *interference* model that
degrades available bandwidth stochastically — the paper leans on this
(§V.B.1: writing 8 MB histogram files took 0.25 s–7 s depending on
file-system state; the Staging configuration insulates the simulation
from exactly this variability).

Read performance depends on layout: :meth:`ParallelFileSystem.read`
takes the number of *extents* being gathered.  A file written by 4096
processes without reorganisation stores each global array in thousands
of scattered chunks, so a reader pays a per-extent seek/dispatch cost —
this is the mechanism behind Fig. 11's 10x merged-vs-unmerged contrast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.sim.engine import Engine
from repro.sim.resources import SharedBandwidth

__all__ = ["FileSystemConfig", "ParallelFileSystem"]

#: simulated seconds between re-samplings of the interference multiplier
INTERFERENCE_INTERVAL = 5.0
#: fraction of peak bandwidth left during an injected stall window
STALL_FLOOR = 0.05


@dataclass(frozen=True)
class FileSystemConfig:
    """Parallel file system parameters (defaults ~ Jaguar's Lustre)."""

    aggregate_bandwidth: float = 40e9  # bytes/s across all OSTs
    client_bandwidth: float = 1.2e9  # bytes/s cap per client stream
    n_osts: int = 672  # object storage targets
    stripe_count: int = 4  # default OSTs per file
    metadata_latency: float = 0.012  # seconds per open/close/create
    extent_overhead: float = 0.0008  # seconds per discontiguous extent read
    #: effective single-client bandwidth for small-file writes (no
    #: striping benefit; metadata/RPC-latency bound).  The paper's 8 MB
    #: histogram files took 0.25-7 s — i.e. ~1-32 MB/s effective.
    small_write_bandwidth: float = 3.2e7
    small_write_threshold: float = 64e6  # bytes; below this is 'small'
    interference_mean: float = 0.18  # mean fraction of bw lost to other jobs
    interference_sigma: float = 0.35  # lognormal sigma of the disturbance
    seed: int = 20100419  # IPDPS 2010 week; fixed for determinism

    def __post_init__(self) -> None:
        if self.aggregate_bandwidth <= 0 or self.client_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.n_osts < 1 or self.stripe_count < 1:
            raise ValueError("n_osts and stripe_count must be >= 1")
        if not 0 <= self.interference_mean < 1:
            raise ValueError("interference_mean must be in [0, 1)")


class ParallelFileSystem:
    """Shared parallel file system on the simulation engine.

    Parameters
    ----------
    env: simulation engine.
    config: file system parameters.
    interference:
        When True (default) available bandwidth fluctuates over time via
        a seeded lognormal multiplier, re-sampled every
        :data:`INTERFERENCE_INTERVAL` simulated seconds, reproducing
        shared-machine variability.
    """

    def __init__(
        self,
        env: Engine,
        config: Optional[FileSystemConfig] = None,
        *,
        interference: bool = True,
    ):
        self.env = env
        self.config = config or FileSystemConfig()
        self._interference = interference
        self._cached_mult = 1.0
        self._cached_slot = -1
        #: fault-injection hook: [(start, end), ...] stall windows
        self._stall_windows: list[tuple[float, float]] = []
        self.pipe = SharedBandwidth(
            env, self.config.aggregate_bandwidth, degradation=self._degradation
        )
        self.bytes_written = 0.0
        self.bytes_read = 0.0
        self.metadata_ops = 0

    # -- fault hooks ---------------------------------------------------------
    def stall_window(self, start: float, end: float) -> None:
        """Clamp bandwidth to :data:`STALL_FLOOR` of peak during [start, end).

        Deterministic fault-injection hook modelling an OST hiccup /
        metadata-server stall; composes with (and dominates) the normal
        interference model while active.
        """
        if end <= start:
            raise ValueError("stall window must have end > start")
        self._stall_windows.append((start, end))

    def _stalled(self, now: float) -> bool:
        return any(start <= now < end for start, end in self._stall_windows)

    # -- interference --------------------------------------------------------
    def _interference_mult(self, now: float) -> float:
        """Piecewise-constant seeded bandwidth multiplier in (0, 1]."""
        slot = int(now / INTERFERENCE_INTERVAL)
        if slot != self._cached_slot:
            self._cached_slot = slot
            # A lognormal 'load' from other jobs eats a fraction of capacity.
            rng = np.random.default_rng(self.config.seed + slot)
            load = rng.lognormal(
                mean=np.log(max(self.config.interference_mean, 1e-9)),
                sigma=self.config.interference_sigma,
            )
            self._cached_mult = float(np.clip(1.0 - load, 0.05, 1.0))
        return self._cached_mult

    def _degradation(self, now: float) -> float:
        """Combined multiplier: background interference x stall windows."""
        mult = self._interference_mult(now) if self._interference else 1.0
        if self._stall_windows and self._stalled(now):
            mult = min(mult, STALL_FLOOR)
        return mult

    # -- helpers ---------------------------------------------------------------
    def _stream_rate_cap(self, nclients: int, stripes: int) -> float:
        """Effective cap for one client stream given striping."""
        per_stripe = self.config.aggregate_bandwidth / self.config.n_osts
        return min(self.config.client_bandwidth, per_stripe * stripes)

    # -- operations --------------------------------------------------------------
    def write(
        self,
        nbytes: float,
        *,
        nclients: int = 1,
        stripes: Optional[int] = None,
        metadata_ops: int = 1,
        label: Optional[str] = None,
    ) -> Generator:
        """Process body: write *nbytes* spread over *nclients* streams.

        Returns elapsed seconds.  Aggregate-pipe sharing plus the
        per-client cap model both the many-writers regime (aggregate
        bound) and the few-writers regime (client bound).  ``label``
        names the traffic class in traces (e.g. flow-control spill I/O
        competing with ordinary output on the same OSTs).
        """
        if nbytes < 0:
            raise ValueError("write size must be non-negative")
        start = self.env.now
        stripes = stripes or self.config.stripe_count
        yield self.env.timeout(self.config.metadata_latency * metadata_ops)
        self.metadata_ops += metadata_ops
        if nbytes > 0:
            cap = self._stream_rate_cap(nclients, stripes) * nclients
            if nbytes / max(nclients, 1) < self.config.small_write_threshold:
                # small writes never reach streaming rates
                per_client = min(
                    self.config.small_write_bandwidth * self._degradation(self.env.now),
                    cap / max(nclients, 1),
                )
                cap = per_client * nclients
            cap_time = nbytes / cap
            done = self.pipe.transfer(nbytes)
            # The slower of 'share of aggregate pipe' and 'client caps'.
            cap_ev = self.env.timeout(cap_time)
            yield self.env.all_of([done, cap_ev])
            self.bytes_written += nbytes
        obs = self.env.obs
        if obs is not None:
            obs.span(
                "fs_write", "io", start, tid=label or "filesystem",
                nbytes=nbytes, nclients=nclients,
            )
            obs.metrics.inc("fs_bytes_written", nbytes)
        return self.env.now - start

    def read(
        self,
        nbytes: float,
        *,
        nclients: int = 1,
        extents: int = 1,
        stripes: Optional[int] = None,
        label: Optional[str] = None,
    ) -> Generator:
        """Process body: read *nbytes* in *extents* discontiguous pieces.

        The per-extent overhead is what reorganised (merged) layouts
        avoid: reading one global array from an unmerged 4096-writer BP
        file costs thousands of extents; from a merged file, a handful.
        Returns elapsed seconds.
        """
        if nbytes < 0:
            raise ValueError("read size must be non-negative")
        if extents < 1:
            raise ValueError("extents must be >= 1")
        start = self.env.now
        stripes = stripes or self.config.stripe_count
        yield self.env.timeout(self.config.metadata_latency)
        self.metadata_ops += 1
        # Seek/dispatch cost for gathering scattered extents, shared
        # across reading clients.
        seek_time = self.config.extent_overhead * extents / max(nclients, 1)
        if seek_time > 0:
            yield self.env.timeout(seek_time)
        if nbytes > 0:
            cap = self._stream_rate_cap(nclients, stripes) * nclients
            done = self.pipe.transfer(nbytes)
            cap_ev = self.env.timeout(nbytes / cap)
            yield self.env.all_of([done, cap_ev])
            self.bytes_read += nbytes
        obs = self.env.obs
        if obs is not None:
            obs.span(
                "fs_read", "io", start, tid=label or "filesystem",
                nbytes=nbytes, nclients=nclients, extents=extents,
            )
            obs.metrics.inc("fs_bytes_read", nbytes)
        return self.env.now - start
