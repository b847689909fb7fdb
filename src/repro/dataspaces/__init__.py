"""DataSpaces: the global data knowledge service (§IV.D).

A virtual, semantically-specialised shared space layered over the
staging area, providing:

1. **data sharing** — ``put()`` / ``get()`` operators agnostic of data
   location or distribution;
2. **data redistribution** — producers and consumers may use different
   domain decompositions and process counts;
3. **data indexing** — n-D domains are linearised along a Hilbert
   space-filling curve and block-partitioned across the DataSpaces
   servers (:mod:`repro.dataspaces.sfc`);
4. **data querying** — point/region retrieval, aggregation queries
   (min/max/avg over a sub-region), and *continuous* queries whose
   registrants are notified on every intersecting insert.

The storage service keeps, per index block, the latest in-memory copy
of every writer region with a coherency protocol (writers exclude
overlapping readers and bump the object version), and load balancing
operates at two levels: data is spread evenly across servers by SFC
blocks, and index metadata redistributes by observed load
(:mod:`repro.dataspaces.space`).
"""

from repro.dataspaces.sfc import (
    hilbert_d2xy,
    hilbert_owner,
    hilbert_xy2d,
    morton_decode,
    morton_encode,
)
from repro.dataspaces.space import (
    DataSpaces,
    DSQueryStats,
    Region,
)

__all__ = [
    "DataSpaces",
    "DSQueryStats",
    "Region",
    "hilbert_d2xy",
    "hilbert_owner",
    "hilbert_xy2d",
    "morton_decode",
    "morton_encode",
]
