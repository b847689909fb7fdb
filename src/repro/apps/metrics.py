"""The per-rank wall-time account both skeleton applications keep."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AppMetrics"]


@dataclass
class AppMetrics:
    """Per-rank wall-time breakdown (Fig. 8(b)'s and Fig. 10(b)'s
    categories); :func:`repro.core.operator.worst_rank` merges ranks."""

    compute: float = 0.0  # main-loop computation
    comm: float = 0.0  # main-loop collectives
    io_blocking: float = 0.0  # visible I/O time
    operations: float = 0.0  # in-compute-node operator time
    total: float = 0.0

    @property
    def main_loop(self) -> float:
        return self.compute + self.comm
