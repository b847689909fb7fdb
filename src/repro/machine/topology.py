"""3-D torus topology in the style of the Cray SeaStar interconnect.

Nodes are identified by integer ids ``0 .. n-1`` laid out in row-major
order over a ``(X, Y, Z)`` torus.  The class provides coordinate
mapping, minimal hop counts (dimension-ordered routing), neighbour
queries and a bisection-width estimate.

:class:`RegionalTopology` layers named *regions* over the torus —
contiguous id blocks standing for machine rows, cabinets or sites.
A cross-region link is slowed one way: a scenario opens a
:meth:`~repro.machine.network.Network.region_extra_window` on the
:class:`~repro.machine.network.Network`, which models slow regions and
regional partitions/flaps (THREATS.md) and keeps per-region-pair byte
accounting.  Without a window a regional run is the plain torus.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

__all__ = ["RegionalTopology", "TorusTopology"]


def _balanced_dims(n: int) -> tuple[int, int, int]:
    """Pick a near-cubic (X, Y, Z) factorisation with X*Y*Z >= n."""
    best: Optional[tuple[int, int, int]] = None
    side = max(1, round(n ** (1.0 / 3.0)))
    for x in range(max(1, side - 2), side + 3):
        for y in range(max(1, side - 2), side + 3):
            z = math.ceil(n / (x * y))
            if x * y * z >= n:
                cand = tuple(sorted((x, y, z), reverse=True))
                if best is None or (
                    cand[0] * cand[1] * cand[2],
                    cand[0] - cand[2],
                ) < (best[0] * best[1] * best[2], best[0] - best[2]):
                    best = cand  # type: ignore[assignment]
    assert best is not None
    return best  # type: ignore[return-value]


class TorusTopology:
    """A 3-D torus with ``n`` active nodes.

    Parameters
    ----------
    n:
        Number of active nodes.  The torus dimensions are chosen as a
        near-cubic factorisation covering ``n``; ids ``>= n`` are holes
        (unpopulated slots), mirroring partial allocations on a real
        machine.
    dims:
        Optional explicit ``(X, Y, Z)`` dimensions; must cover ``n``.
    """

    def __init__(self, n: int, dims: Optional[tuple[int, int, int]] = None):
        if n < 1:
            raise ValueError("topology needs at least one node")
        self.n = n
        if dims is None:
            dims = _balanced_dims(n)
        x, y, z = dims
        if x * y * z < n:
            raise ValueError(f"dims {dims} cannot hold {n} nodes")
        self.dims = (int(x), int(y), int(z))

    # -- coordinates ----------------------------------------------------
    def coords(self, node: int) -> tuple[int, int, int]:
        """Torus coordinates of *node* (row-major layout)."""
        if not 0 <= node < self.n:
            raise IndexError(f"node {node} outside [0, {self.n})")
        x_dim, y_dim, _ = self.dims
        x = node % x_dim
        y = (node // x_dim) % y_dim
        z = node // (x_dim * y_dim)
        return (x, y, z)

    def node_at(self, coords: tuple[int, int, int]) -> int:
        """Inverse of :meth:`coords` (may point at a hole slot)."""
        x, y, z = coords
        x_dim, y_dim, z_dim = self.dims
        if not (0 <= x < x_dim and 0 <= y < y_dim and 0 <= z < z_dim):
            raise IndexError(f"coords {coords} outside torus {self.dims}")
        return x + y * x_dim + z * x_dim * y_dim

    # -- distances ------------------------------------------------------
    def hops(self, a: int, b: int) -> int:
        """Minimal hop count between nodes *a* and *b* on the torus."""
        if a == b:
            return 0
        ca, cb = self.coords(a), self.coords(b)
        total = 0
        for da, db, dim in zip(ca, cb, self.dims):
            delta = abs(da - db)
            total += min(delta, dim - delta)
        return total

    @property
    def diameter(self) -> int:
        """Maximum minimal hop count across the torus."""
        return sum(d // 2 for d in self.dims)

    def average_hops(self) -> float:
        """Mean pairwise hop distance (closed form per dimension)."""
        # For a ring of size d, average distance over ordered pairs is
        # approximately d/4; exact value below.
        acc = 0.0
        for d in self.dims:
            if d == 1:
                continue
            dists = [min(k, d - k) for k in range(d)]
            acc += sum(dists) / d
        return acc

    def neighbors(self, node: int) -> Iterator[int]:
        """Active torus neighbours of *node* (up to 6)."""
        c = self.coords(node)
        for axis in range(3):
            for step in (-1, 1):
                nc = list(c)
                nc[axis] = (nc[axis] + step) % self.dims[axis]
                other = self.node_at(tuple(nc))
                if other != node and other < self.n:
                    yield other

    def bisection_links(self) -> int:
        """Number of links crossing the worst-case bisection plane.

        For a torus, cutting the largest dimension in half severs
        ``2 * (product of other dims)`` links (wrap-around doubles it).
        """
        x, y, z = sorted(self.dims, reverse=True)
        if x == 1:
            return 1
        return 2 * y * z

    def __repr__(self) -> str:
        return f"TorusTopology(n={self.n}, dims={self.dims})"


class RegionalTopology(TorusTopology):
    """A torus whose nodes are carved into named, contiguous regions.

    Parameters
    ----------
    n:
        Number of active nodes (as for :class:`TorusTopology`).
    regions:
        Ordered region names.  Nodes are striped into contiguous,
        near-equal id blocks in this order (node ``i`` belongs to
        region ``floor(i * len(regions) / n)``), mirroring row/cabinet
        allocation on a real machine.
    """

    def __init__(self, n: int, regions: Sequence[str]):
        super().__init__(n)
        names = tuple(regions)
        if not names:
            raise ValueError("need at least one region")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names in {names}")
        self.regions = names
        k = len(names)
        self._region_of = [names[min(i * k // n, k - 1)] for i in range(n)]

    # -- region structure ------------------------------------------------
    def region_of(self, node: int) -> str:
        """Region name of *node*."""
        if not 0 <= node < self.n:
            raise IndexError(f"node {node} outside [0, {self.n})")
        return self._region_of[node]

    def region_nodes(self, region: str) -> list[int]:
        """All node ids of *region* (ascending)."""
        if region not in self.regions:
            raise KeyError(f"unknown region {region!r} (have {self.regions})")
        return [i for i in range(self.n) if self._region_of[i] == region]

    def __repr__(self) -> str:
        return (
            f"RegionalTopology(n={self.n}, dims={self.dims}, "
            f"regions={self.regions})"
        )
