"""Placement advisor: analytic cost models for operator placement.

§V's conclusion — "whenever data is processed in-transit, it is
important to be flexible in where the operators performing such
processing are placed" — and §VII's future work — "automate placement
decisions ... develop performance models for sizing staging areas and
provisioning their services" — motivate this module.

:class:`PlacementAdvisor` predicts, for an operator characterised by a
small :class:`OperatorProfile`, the three §V placements' costs:

- ``incompute`` — everything visible to the simulation;
- ``staging``  — visible time collapses to pack+request, the pipeline
  runs asynchronously; latency includes the movement;
- ``offline``  — the §V.B.3 read-back model.

and recommends a placement for a chosen objective (simulation time vs
result latency — exactly the tradeoff Fig. 7 demonstrates with the
sorting operator).  :meth:`size_staging_area` inverts the staging
model: the smallest staging area whose pipeline fits the I/O interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.placement import OfflineCostModel
from repro.core.staging import StagingConfig
from repro.machine.machine import Machine

__all__ = ["OperatorProfile", "PlacementEstimate", "PlacementAdvisor"]


@dataclass(frozen=True)
class OperatorProfile:
    """What the advisor needs to know about an operation.

    flops_per_byte: compute intensity of the Map-side scan.
    membytes_factor: memory traffic of the Reduce per input byte
        (e.g. ~100 for big sorts; ~0 for histograms).
    shuffle_fraction: fraction of the input crossing the shuffle
        (1.0 sort/merge, ~0 histograms).
    output_bytes: bytes written by Finalize (e.g. the 8 MB histogram).
    reduces_data: True when output << input (affects the offline
        model's disk-trip count).
    """

    flops_per_byte: float = 2.0
    membytes_factor: float = 0.0
    shuffle_fraction: float = 1.0
    output_bytes: float = 0.0
    reduces_data: bool = False

    def __post_init__(self) -> None:
        if self.flops_per_byte < 0 or self.membytes_factor < 0:
            raise ValueError("cost factors must be non-negative")
        if not 0.0 <= self.shuffle_fraction <= 1.0:
            raise ValueError("shuffle_fraction must be in [0, 1]")


@dataclass(frozen=True)
class PlacementEstimate:
    """Predicted costs of one placement."""

    placement: str
    visible_seconds: float  # charged to the simulation per dump
    latency_seconds: float  # dump start -> results available
    feasible: bool  # fits inside the I/O interval


class PlacementAdvisor:
    """Analytic placement and sizing advisor for one workload."""

    def __init__(
        self,
        machine: Machine,
        *,
        nprocs: int,
        bytes_per_proc: float,
        io_interval: float,
        staging_procs: int = 0,
        fetch_rate_cap: Optional[float] = None,
    ):
        if nprocs < 1 or bytes_per_proc <= 0 or io_interval <= 0:
            raise ValueError("bad workload parameters")
        self.machine = machine
        self.nprocs = nprocs
        self.bytes_per_proc = bytes_per_proc
        self.io_interval = io_interval
        self.staging_procs = staging_procs
        self.fetch_rate_cap = fetch_rate_cap
        self.total_bytes = nprocs * bytes_per_proc

    # -- building blocks ---------------------------------------------------
    def _compute_seconds(self, nbytes: float, flops_per_byte: float,
                         cores: int) -> float:
        node = self.machine.spec.node
        return nbytes * flops_per_byte / (node.core_flops * cores)

    def _mem_seconds(self, nbytes: float, factor: float) -> float:
        return nbytes * factor / self.machine.spec.node.memory_bandwidth

    def _shuffle_seconds(self, per_rank_bytes: float, nprocs: int) -> float:
        return self.machine.network.collective_time(
            "alltoall", max(nprocs, 2), per_rank_bytes / max(nprocs, 1)
        )

    def _sync_write_seconds(self, nbytes: float, nclients: int) -> float:
        fs = self.machine.spec.filesystem
        cap = min(fs.aggregate_bandwidth, fs.client_bandwidth * nclients)
        return nbytes / cap + fs.metadata_latency

    # -- placements ------------------------------------------------------------
    def predict_incompute(self, profile: OperatorProfile) -> PlacementEstimate:
        """Cost estimate for running the operator on the compute ranks."""
        per_rank = self.bytes_per_proc
        t = self._compute_seconds(per_rank, profile.flops_per_byte, 1)
        t += self._mem_seconds(per_rank, profile.membytes_factor)
        t += self._shuffle_seconds(
            per_rank * profile.shuffle_fraction, self.nprocs
        )
        if profile.output_bytes:
            fs = self.machine.spec.filesystem
            t += profile.output_bytes / fs.small_write_bandwidth
        # the raw dump itself still goes synchronously to the FS
        t_io = self._sync_write_seconds(self.total_bytes, self.nprocs)
        visible = t + t_io
        return PlacementEstimate(
            "incompute", visible, latency_seconds=t,
            feasible=visible < self.io_interval,
        )

    def predict_staging(
        self, profile: OperatorProfile, staging_procs: Optional[int] = None
    ) -> PlacementEstimate:
        """Cost estimate for the asynchronous staging pipeline."""
        procs = staging_procs or self.staging_procs
        if procs < 1:
            raise ValueError("staging placement needs staging_procs >= 1")
        node = self.machine.spec.node
        per_staging = self.total_bytes / procs
        # visible: pack (two memory passes) + request latency
        visible = (
            2 * self.bytes_per_proc / node.memory_bandwidth
            + self.machine.spec.network.latency * 4
        )
        # movement: paced fetch or NIC-bound
        nic = self.machine.spec.network.link_bandwidth
        rate = min(self.fetch_rate_cap or nic, nic)
        fetch = per_staging / rate
        t_map = self._compute_seconds(
            per_staging, profile.flops_per_byte, StagingConfig.threads_per_process
        )
        t_mem = self._mem_seconds(per_staging, profile.membytes_factor)
        t_shuffle = self._shuffle_seconds(
            per_staging * profile.shuffle_fraction, procs
        )
        t_out = 0.0
        if profile.output_bytes:
            fs = self.machine.spec.filesystem
            t_out = profile.output_bytes / fs.small_write_bandwidth
        latency = max(fetch, t_map) + t_mem + t_shuffle + t_out
        return PlacementEstimate(
            "staging", visible, latency_seconds=latency,
            feasible=latency < self.io_interval,
        )

    def predict_offline(self, profile: OperatorProfile) -> PlacementEstimate:
        """Cost estimate for the post-hoc read-back placement (SSV.B.3)."""
        model = OfflineCostModel(self.machine)
        est = model.estimate(
            self.total_bytes,
            reduces_data=profile.reduces_data,
            flops_per_byte=profile.flops_per_byte,
            output_bytes=profile.output_bytes,
        )
        t_io = self._sync_write_seconds(self.total_bytes, self.nprocs)
        return PlacementEstimate(
            "offline", visible_seconds=t_io,
            latency_seconds=est.latency,
            feasible=est.latency < self.io_interval,
        )

    # -- decisions ---------------------------------------------------------------
    def recommend(
        self, profile: OperatorProfile, objective: str = "simulation_time"
    ) -> PlacementEstimate:
        """Best placement under *objective*.

        ``simulation_time`` minimises visible cost among feasible
        placements (Fig. 7's conclusion for sorting: staging);
        ``latency`` minimises time-to-results (Fig. 7's conclusion
        when sorted data is needed urgently: in-compute).
        """
        options = [
            self.predict_incompute(profile),
            self.predict_offline(profile),
        ]
        if self.staging_procs >= 1:
            options.append(self.predict_staging(profile))
        feasible = [o for o in options if o.feasible] or options
        if objective == "simulation_time":
            return min(feasible, key=lambda o: o.visible_seconds)
        if objective == "latency":
            return min(feasible, key=lambda o: o.latency_seconds)
        raise ValueError(f"unknown objective {objective!r}")

    def size_staging_area(
        self, profile: OperatorProfile, *, headroom: float = 0.5
    ) -> int:
        """Smallest staging-process count whose pipeline latency fits
        ``headroom * io_interval`` (§VII's sizing-model future work).

        Returns the process count; raises if even one process per
        compute process cannot meet the budget.
        """
        if not 0 < headroom <= 1:
            raise ValueError("headroom must be in (0, 1]")
        budget = headroom * self.io_interval
        lo, hi = 1, max(self.nprocs, 1)
        if self.predict_staging(profile, hi).latency_seconds > budget:
            raise ValueError(
                f"no staging size up to {hi} procs meets the "
                f"{budget:.1f} s budget"
            )
        while lo < hi:
            mid = (lo + hi) // 2
            if self.predict_staging(profile, mid).latency_seconds <= budget:
                hi = mid
            else:
                lo = mid + 1
        return lo
