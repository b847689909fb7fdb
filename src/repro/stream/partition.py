"""Consumer-group partitioning along the DataSpaces SFC.

A consumer group of N reader ranks splits a subscribed region by
*block*, using the same locality-preserving linearisation DataSpaces
uses for its servers: each index block's Hilbert position (Morton for
non-2-D domains) is cut into N equal curve segments, so every member
owns one contiguous, compact piece of the key space — independent of
which *server* stores the block.
"""

from __future__ import annotations

from repro.dataspaces.sfc import hilbert_owner, morton_encode
from repro.dataspaces.space import Region

__all__ = ["block_owner", "member_charge_bytes", "member_pieces"]


def block_owner(index, block: tuple[int, ...], nmembers: int) -> int:
    """Group member owning *block* of *index* among *nmembers*."""
    if nmembers < 1:
        raise ValueError("need at least one group member")
    if len(index.grid) == 2:
        return hilbert_owner(index.order, block[0], block[1], nmembers)
    ncells = 1 << (index.order * len(index.grid))
    return morton_encode(block, nbits=index.order) * nmembers // ncells


def member_pieces(
    index, region: Region, nmembers: int, member: int
) -> list[Region]:
    """The sub-regions of *region* owned by *member* (block-clipped).

    Pieces of different members are disjoint and jointly cover the
    region exactly (tested by property), so a group fetches each cell
    exactly once.
    """
    out = []
    for b in index.blocks_for(region):
        if block_owner(index, b, nmembers) != member:
            continue
        cut = index.block_region(b).intersect(region)
        if cut is not None:
            out.append(cut)
    return out


def member_charge_bytes(index, region: Region, nmembers: int, member: int) -> float:
    """Credit charge of one step for *member*: its partition's float64 bytes."""
    return float(
        sum(p.cells for p in member_pieces(index, region, nmembers, member)) * 8.0
    )
