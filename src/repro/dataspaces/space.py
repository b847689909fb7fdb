"""The DataSpaces shared-space service (§IV.D).

Functional model: every ``put()`` really stores numpy data on the
simulated servers; every ``get()`` really reassembles the requested
sub-region from the stored pieces, whatever decomposition produced
them (data redistribution).  The timing model charges index hashing,
one-time query setup (discovery + routing), per-server wire transfers
through the machine network, and server-side scan work for aggregation
queries.

Index structure: the declared n-D domain is carved into a power-of-two
grid of *blocks*; blocks are ordered along a Hilbert curve (2-D
domains) or Morton order (otherwise) and contiguous runs of blocks are
assigned to servers — the locality-preserving linearisation that keeps
a rectangular query touching few servers.  Load balancing is two-level
(§IV.D): data is spread evenly by block at declare time, and
:meth:`DataSpaces.rebalance` redistributes index metadata by observed
per-block load.

Storage is keyed by that index: ``name -> block -> writer region ->``
the latest piece written there plus the summed item sizes of every
version.  A query visits only the blocks its region hashes to and, in
a block, only the distinct writer regions, so its cost does not grow
with the version history.  Superseded versions keep their byte count
(the timing model charges it) but not their array: nothing can read it.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.dataspaces.sfc import hilbert_xy2d, morton_encode
from repro.machine.machine import Machine
from repro.perf import kernels
from repro.sim.engine import Engine, Event

__all__ = ["Region", "DSQueryStats", "DataSpaces"]

#: discovery round-trips on a client's first query
_SETUP_ROUNDS = 3
#: index granularity: a declared domain is cut into about this many
#: blocks per server
BLOCKS_PER_SERVER = 8


@dataclass(frozen=True)
class Region:
    """An axis-aligned n-D box: inclusive ``lb``, exclusive ``ub``."""

    lb: tuple[int, ...]
    ub: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lb) != len(self.ub):
            raise ValueError("lb/ub rank mismatch")
        object.__setattr__(self, "lb", tuple(int(v) for v in self.lb))
        object.__setattr__(self, "ub", tuple(int(v) for v in self.ub))
        for lo, hi in zip(self.lb, self.ub, strict=True):
            if hi <= lo:
                raise ValueError(f"empty region {self.lb}..{self.ub}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in zip(self.lb, self.ub, strict=True))

    @property
    def cells(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def intersect(self, other: Region) -> Region | None:
        """The overlapping box with *other*, or None when disjoint."""
        lb, ub = [], []
        for lo, hi, olo, ohi in zip(self.lb, self.ub, other.lb, other.ub, strict=True):
            if olo > lo:
                lo = olo
            if ohi < hi:
                hi = ohi
            if hi <= lo:
                return None
            lb.append(lo)
            ub.append(hi)
        return Region(tuple(lb), tuple(ub))

    def slice_within(self, outer: Region) -> tuple[slice, ...]:
        """Numpy selection of *self* inside an array covering *outer*."""
        bounds = zip(self.lb, self.ub, outer.lb, strict=True)
        return tuple(slice(lo - olo, hi - olo) for lo, hi, olo in bounds)


@dataclass
class DSQueryStats:
    """Timing breakdown of one client's interaction (Fig. 9 series)."""

    setup_seconds: float = 0.0  # first-query discovery/routing
    hashing_seconds: float = 0.0  # index hashing at the servers
    query_seconds: float = 0.0  # data retrieval
    servers_contacted: int = 0
    bytes_moved: float = 0.0
    pieces_examined: int = 0  # stored pieces tested against get regions


@dataclass
class _Written:
    """What one index block holds for one writer region."""

    region: Region
    version: int  # of the latest write ...
    arrival: int  # ... and its commit order (breaks version ties)
    data: np.ndarray
    itemsizes: int  # summed over every version written, superseded or not


@dataclass
class _ContinuousQuery:
    region: Region
    client_node: int
    callback: Callable[[Region, int], None]


class _DomainIndex:
    """Block partition of one declared domain across servers."""

    def __init__(self, dims: tuple[int, ...], nservers: int):
        self.dims = tuple(int(d) for d in dims)
        self.nservers = nservers
        ndim = len(self.dims)
        # power-of-two block grid with ~BLOCKS_PER_SERVER*nservers blocks
        target = max(nservers * BLOCKS_PER_SERVER, 1)
        per_dim = max(1, round(target ** (1.0 / ndim)))
        order = max(1, int(np.ceil(np.log2(per_dim))))
        self.order = order
        self.grid = tuple(min(1 << order, d) for d in self.dims)
        self.block_shape = tuple(
            int(np.ceil(d / g)) for d, g in zip(self.dims, self.grid, strict=True)
        )
        blocks = list(np.ndindex(*self.grid))
        # order blocks along the SFC for locality
        if ndim == 2:
            blocks.sort(key=lambda b: hilbert_xy2d(self.order, b[0], b[1]))
        else:
            blocks.sort(key=lambda b: morton_encode(b, nbits=self.order))
        self.blocks = blocks
        # contiguous runs of the SFC order to servers (even split)
        self.owner: dict[tuple[int, ...], int] = {}
        per = int(np.ceil(len(blocks) / nservers))
        for i, b in enumerate(blocks):
            self.owner[b] = min(i // per, nservers - 1)
        self.load_bytes: dict[tuple[int, ...], float] = {b: 0.0 for b in blocks}
        # trailing blocks are empty when block_shape does not divide dims
        self._block_regions: dict[tuple[int, ...], Region] = {}
        for b in blocks:
            lb = tuple(bi * s for bi, s in zip(b, self.block_shape, strict=True))
            if all(lo < d for lo, d in zip(lb, self.dims, strict=True)):
                extent = zip(lb, self.block_shape, self.dims, strict=True)
                self._block_regions[b] = Region(lb, tuple(min(lo + s, d) for lo, s, d in extent))

    def block_region(self, b: tuple[int, ...]) -> Region:
        """The cells of block *b* (KeyError for an empty trailing block)."""
        return self._block_regions[b]

    def blocks_for(self, region: Region) -> list[tuple[int, ...]]:
        """Blocks overlapping *region*, in row-major block order."""
        axes = zip(region.lb, region.ub, self.block_shape, self.grid, strict=True)
        spans = (range(lo // s, min((hi - 1) // s, g - 1) + 1) for lo, hi, s, g in axes)
        return list(product(*spans))

    def servers_for(self, region: Region) -> dict[int, list[tuple[int, ...]]]:
        by_server: dict[int, list[tuple[int, ...]]] = {}
        for b in self.blocks_for(region):
            by_server.setdefault(self.owner[b], []).append(b)
        return by_server

    def rebalance(self) -> int:
        """Reassign blocks so per-server stored bytes even out.

        Returns the number of blocks whose ownership moved (index
        metadata redistribution — the second load-balancing level).
        """
        order = self.blocks
        total = sum(self.load_bytes.values())
        if total <= 0:
            return 0
        target = total / self.nservers
        moved = 0
        server = 0
        acc = 0.0
        for b in order:
            if server < self.nservers - 1 and acc >= target:
                server += 1
                acc = 0.0
            if self.owner[b] != server:
                moved += 1
                self.owner[b] = server
            acc += self.load_bytes[b]
        return moved


class DataSpaces:
    """The distributed shared-space service on the staging area.

    Parameters
    ----------
    env: simulation engine.
    machine: machine hosting the servers.
    server_nodes: machine node id per DataSpaces server process.
    hash_seconds_per_block: index-hash cost charged per block touched.
    """

    def __init__(
        self,
        env: Engine,
        machine: Machine,
        server_nodes: list[int],
        *,
        hash_seconds_per_block: float = 2e-5,
        wire_scale: float = 1.0,
        serve_bandwidth: float | None = None,
        setup_server_seconds: float = 0.0,
        reply_overhead_seconds: float = 0.0,
    ):
        """``wire_scale`` multiplies transferred byte counts for timing
        when stored functional data stands in for a larger logical
        volume (cf. ``OutputStep.volume_scale``).

        ``serve_bandwidth`` (bytes/s, logical) caps each server
        process's retrieval rate — index traversal plus scatter/gather
        copies are far slower than the NIC.  One core per concurrent
        request is occupied for the serve duration, so bursts of
        clients queue on the server node's cores.

        ``setup_server_seconds`` is the CPU time a first-contact
        discovery request costs on the bootstrap server; concurrent
        new clients serialise on its cores (the reason first-query
        setup grows with the number of querying cores, Fig. 9)."""
        if not server_nodes:
            raise ValueError("need at least one server node")
        if wire_scale <= 0:
            raise ValueError("wire_scale must be positive")
        if serve_bandwidth is not None and serve_bandwidth <= 0:
            raise ValueError("serve_bandwidth must be positive")
        if setup_server_seconds < 0:
            raise ValueError("setup_server_seconds must be non-negative")
        if reply_overhead_seconds < 0:
            raise ValueError("reply_overhead_seconds must be non-negative")
        self.env = env
        self.machine = machine
        self.server_nodes = list(server_nodes)
        self.hash_seconds_per_block = hash_seconds_per_block
        self.wire_scale = wire_scale
        self.serve_bandwidth = serve_bandwidth
        self.setup_server_seconds = setup_server_seconds
        #: client-side cost of posting/assembling each server's reply;
        #: queries spanning more servers pay more (the paper's Fig. 9
        #: growth with querying-core count — a bigger weak-scaled
        #: domain maps each query onto more staging cores)
        self.reply_overhead_seconds = reply_overhead_seconds
        self._indexes: dict[str, _DomainIndex] = {}
        #: name -> block -> writer region -> what is stored there; the
        #: block's server is ``index(name).owner[block]`` at query time
        self._store: dict[str, dict[tuple[int, ...], dict[Region, _Written]]] = {}
        self._commits = 0
        self._versions: dict[str, int] = {}
        self._writers: dict[str, int] = {}
        self._write_clear: dict[str, Event] = {}
        #: name -> subscription id -> continuous query
        self._continuous: dict[str, dict[int, _ContinuousQuery]] = {}
        self._next_subscription_id = 0
        self._client_setup_done: set[int] = set()
        self.bytes_stored = 0.0

    # -- declaration -----------------------------------------------------
    def declare(self, name: str, dims: tuple[int, ...]) -> None:
        """Declare a named domain before any put/get."""
        if name in self._indexes:
            raise ValueError(f"domain {name!r} already declared")
        idx = _DomainIndex(dims, len(self.server_nodes))
        self._indexes[name] = idx
        self._store[name] = {b: {} for b in idx.blocks}
        self._versions[name] = 0
        self._writers[name] = 0

    def index(self, name: str) -> _DomainIndex:
        """The block index of the declared domain *name*."""
        if name not in self._indexes:
            raise KeyError(f"domain {name!r} not declared")
        return self._indexes[name]

    def version(self, name: str) -> int:
        """Current committed version of the declared domain *name*."""
        if name not in self._versions:
            raise KeyError(f"domain {name!r} not declared")
        return self._versions[name]

    # -- coherency helpers ----------------------------------------------------
    def _begin_write(self, name: str) -> None:
        self._writers[name] += 1

    def _end_write(self, name: str) -> None:
        self._writers[name] -= 1
        if self._writers[name] == 0:
            ev = self._write_clear.pop(name, None)
            if ev is not None and not ev.triggered:
                ev.succeed()

    def _wait_writers(self, name: str) -> Generator:
        while self._writers[name] > 0:
            ev = self._write_clear.get(name)
            if ev is None or ev.triggered:
                ev = self.env.event()
                self._write_clear[name] = ev
            yield ev

    # -- put ----------------------------------------------------------------------
    def put(
        self,
        client_node: int,
        name: str,
        region: Region,
        data: np.ndarray,
        *,
        stats: DSQueryStats | None = None,
    ) -> Generator:
        """Process body: insert *data* covering *region*.

        The data is split along index blocks and shipped to the owning
        servers; the object version is bumped atomically at completion
        (writers exclude overlapping readers until then).
        """
        idx = self.index(name)
        data = np.asarray(data)
        if tuple(data.shape) != region.shape:
            raise ValueError(f"data shape {data.shape} != region shape {region.shape}")
        self._begin_write(name)
        try:
            by_server = idx.servers_for(region)
            yield self.env.timeout(
                self.hash_seconds_per_block * sum(len(bs) for bs in by_server.values())
            )
            version = self._versions[name] + 1
            events = []
            staged: list[tuple[tuple[int, ...], Region, np.ndarray]] = []
            for server, blocks in by_server.items():
                nbytes = 0.0
                for b in blocks:
                    cut = idx.block_region(b).intersect(region)
                    if cut is None:
                        continue
                    piece = data[cut.slice_within(region)]
                    staged.append((b, cut, piece.copy()))
                    nbytes += piece.nbytes
                if stats is not None:
                    stats.bytes_moved += nbytes
                events.append(
                    self.machine.network.transfer_event(
                        client_node, self.server_nodes[server], nbytes * self.wire_scale, rdma=True
                    )
                )
            if events:
                yield self.env.all_of(events)
            # commit: pieces become visible only once every server has
            # the data — readers never observe a half-landed put.  A
            # re-put of a writer region replaces its array unless a
            # newer version already landed; its bytes count either way
            self._commits += 1
            for b, cut, piece in staged:
                writers = self._store[name][b]
                held = writers.get(cut)
                if held is None:
                    writers[cut] = _Written(cut, version, self._commits, piece, piece.itemsize)
                else:
                    held.itemsizes += piece.itemsize
                    if version >= held.version:
                        held.version, held.arrival, held.data = version, self._commits, piece
                idx.load_bytes[b] += piece.nbytes
                self.bytes_stored += piece.nbytes
            self._versions[name] = version
        finally:
            self._end_write(name)
        # notifications for continuous queries (snapshot: a callback may
        # register or unregister without disturbing this round)
        for cq in list(self._continuous.get(name, {}).values()):
            if cq.region.intersect(region) is not None:
                yield from self.machine.network.transfer(self.server_nodes[0], cq.client_node, 64.0)
                cq.callback(region, self._versions[name])

    # -- get -----------------------------------------------------------------------
    def get(
        self, client_node: int, name: str, region: Region, *, stats: DSQueryStats | None = None
    ) -> Generator:
        """Process body: retrieve the sub-array covering *region*.

        Returns a numpy array of ``region.shape``; raises if any cell
        has never been written.
        """
        idx = self.index(name)
        yield from self._wait_writers(name)
        stats = stats if stats is not None else DSQueryStats()
        t0 = self.env.now
        if client_node not in self._client_setup_done:
            # one-time discovery: metadata exchange round-trips plus
            # registration work on the bootstrap server; concurrent
            # first-time clients serialise on its cores.
            for _ in range(_SETUP_ROUNDS):
                yield from self.machine.network.transfer(client_node, self.server_nodes[0], 512.0)
                yield from self.machine.network.transfer(self.server_nodes[0], client_node, 4096.0)
            if self.setup_server_seconds > 0:
                boot = self.machine.node(self.server_nodes[0])
                yield from boot.compute(self.setup_server_seconds * boot.config.core_flops)
            self._client_setup_done.add(client_node)
            stats.setup_seconds += self.env.now - t0
        t0 = self.env.now
        by_server = idx.servers_for(region)
        yield self.env.timeout(
            self.hash_seconds_per_block * sum(len(bs) for bs in by_server.values())
        )
        stats.hashing_seconds += self.env.now - t0

        t0 = self.env.now
        out, filled, charged, examined = self._overlay(name, region, by_server)
        stats.pieces_examined += examined
        events = []
        for server, nbytes in charged.items():
            stats.bytes_moved += nbytes
            events.append(
                self.env.process(self._serve_and_ship(server, client_node, nbytes), name="ds-serve")
            )
        stats.servers_contacted += len(by_server)
        if events:
            yield self.env.all_of(events)
        if self.reply_overhead_seconds > 0:
            yield self.env.timeout(self.reply_overhead_seconds * len(by_server))
        stats.query_seconds += self.env.now - t0
        if not filled.all():
            raise KeyError(f"{name!r}: {int((~filled).sum())} cells of {region} unwritten")
        return out

    def _overlay(
        self, name: str, region: Region, by_server: dict[int, list[tuple[int, ...]]]
    ) -> tuple[np.ndarray, np.ndarray, dict[int, float], int]:
        """Assemble *region* from the blocks of *by_server*.

        In each block the latest piece of every overlapping writer
        region is laid down in (version, arrival) order, so the newest
        write wins per cell.  Returns the array (in the stored dtype),
        the mask of written cells, the bytes charged per server (every
        version ever written there counts) and the pieces examined.
        """
        hits: list[tuple[int, _Written, Region]] = []
        examined = 0
        for server, blocks in by_server.items():
            for b in blocks:
                writers = self._store[name][b].values()
                examined += len(writers)
                found = [
                    (server, w, cut)
                    for w in writers
                    if (cut := w.region.intersect(region)) is not None
                ]
                hits += sorted(found, key=lambda h: (h[1].version, h[1].arrival))
        dtype = np.result_type(*{w.data.dtype for _, w, _ in hits}) if hits else np.float64
        pieces = [(cut.lb, w.data[cut.slice_within(w.region)]) for _, w, cut in hits]
        out, filled = kernels.paste_pieces(region.shape, dtype, pieces, region.lb)
        charged = dict.fromkeys(by_server, 0.0)
        for server, w, cut in hits:
            charged[server] += cut.cells * w.itemsizes
        return out, filled, charged, examined

    def _serve_and_ship(self, server: int, client_node: int, nbytes: float):
        """Process body: server-side gather (core-occupied, rate-capped)
        then the wire transfer to the client."""
        logical = nbytes * self.wire_scale
        if self.serve_bandwidth is not None and logical > 0:
            node = self.machine.node(self.server_nodes[server])
            serve_seconds = logical / self.serve_bandwidth
            yield from node.compute(serve_seconds * node.config.core_flops)
        yield from self.machine.network.transfer(
            self.server_nodes[server], client_node, logical, rdma=True
        )

    # -- aggregation queries -------------------------------------------------------
    def query_reduce(
        self, client_node: int, name: str, region: Region, *, stats: DSQueryStats | None = None
    ) -> Generator:
        """Process body: server-side min/max/avg over *region*.

        Only scalars cross the network (the servers scan locally).
        """
        idx = self.index(name)
        yield from self._wait_writers(name)
        by_server = idx.servers_for(region)
        yield self.env.timeout(
            self.hash_seconds_per_block * sum(len(b) for b in by_server.values())
        )
        mins, maxs, total, count = [], [], 0, 0
        events = []
        for server, blocks in by_server.items():
            # each server scans one coherent snapshot of its own blocks
            # (latest write wins per cell), exactly like get()
            overlay, filled, scanned, _ = self._overlay(name, region, {server: blocks})
            vals = overlay[filled]
            if vals.size:
                mins.append(vals.min().item())
                maxs.append(vals.max().item())
                total += vals.sum().item()
                count += vals.size
            # server-side scan cost
            node = self.machine.node(self.server_nodes[server])
            events.append(self.env.process(node.compute(2.0 * scanned[server]), name="ds-scan"))
            events.append(
                self.machine.network.transfer_event(self.server_nodes[server], client_node, 24.0)
            )
        if events:
            yield self.env.all_of(events)
        if stats is not None:
            stats.servers_contacted += len(by_server)
        if count == 0:
            raise KeyError(f"no data in {region} of {name!r}")
        return {"min": min(mins), "max": max(maxs), "avg": total / count, "count": count}

    # -- continuous queries ------------------------------------------------------------
    def register_continuous(
        self,
        name: str,
        region: Region,
        client_node: int,
        callback: Callable[[Region, int], None],
    ) -> int:
        """Notify *callback* whenever a put intersects *region*.

        Returns a durable subscription id accepted by
        :meth:`unregister_continuous`.
        """
        self.index(name)  # validates declaration
        sid = self._next_subscription_id
        self._next_subscription_id += 1
        self._continuous.setdefault(name, {})[sid] = _ContinuousQuery(region, client_node, callback)
        return sid

    def unregister_continuous(self, subscription_id: int) -> None:
        """Drop the continuous query *subscription_id*; its callback
        never fires again (a departed reader stops costing puts)."""
        for name, subs in self._continuous.items():
            if subs.pop(subscription_id, None) is not None:
                if not subs:
                    del self._continuous[name]
                return
        raise KeyError(f"unknown subscription id {subscription_id}")

    # -- load balancing ------------------------------------------------------------------
    def server_load(self) -> list[float]:
        """Stored bytes per server (level-1 balance view): every
        committed version counts, under its block's current owner."""
        loads = [0.0] * len(self.server_nodes)
        for idx in self._indexes.values():
            for b, nbytes in idx.load_bytes.items():
                loads[idx.owner[b]] += nbytes
        return loads

    def rebalance(self, name: str) -> int:
        """Redistribute index metadata of *name* by observed load."""
        return self.index(name).rebalance()
