"""Fluid-flow interconnect model with collective cost models.

Every node owns a full-duplex NIC: a TX pipe and an RX pipe, each a
:class:`~repro.sim.resources.SharedBandwidth`.  A point-to-point
transfer of ``n`` bytes from ``a`` to ``b``:

1. waits the routing latency ``alpha + hop_latency * hops(a, b)``;
2. streams ``n`` bytes through ``a``'s TX pipe, ``b``'s RX pipe and the
   global bisection backbone simultaneously, completing when the
   slowest of the three finishes.

Because the pipes are processor-sharing, concurrent traffic (e.g.
asynchronous staging fetches overlapping the simulation's collectives —
the central interference effect of §V.B.2) naturally slows transfers
down without any special-casing.

Collective operations are costed with standard alpha-beta (Hockney)
models; to make them *contention-aware*, the byte volume each rank
contributes is pushed through that rank's NIC pipes, so background
staging traffic stretches collective time exactly as the paper
describes (≤6 % main-loop slowdown when movement is well scheduled).

A collective enters each pipe once: the ranks a node hosts arrive
together with equal volumes, so they are one entry of that weight
(``SharedBandwidth.occupy``).  Ownership of the wakeup: a pipe that was
idle at entry is left unarmed and the *collective* wakes it, with one
timer for all the pipes due at the same instant — one timer in all when
nothing contends — at exactly the time the pipe would have woken
itself; a pipe that was busy at entry, or that a fetch enters while the
collective occupies it, arms and drives itself as for any transfer and
the collective's timer passes it by.  Every collective goes through the
pipes; none is priced in closed form.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from math import ceil, log2
from typing import Callable, Generator, Optional

from repro.sim.engine import Engine, Event
from repro.sim.resources import SharedBandwidth
from repro.machine.topology import TorusTopology

__all__ = ["NetworkConfig", "Network", "NIC", "registry_mark", "live_networks"]

#: weak refs to every Network ever constructed, in creation order.  The
#: benchmark harness brackets an experiment with :func:`registry_mark` /
#: :func:`live_networks` to attribute simulated time and bytes moved to
#: the engines that experiment built internally.  Weak references keep
#: this from pinning finished simulations in memory; a finished network
#: stays listed until the next gc pass (see ``Network._keepalive``).
_LIVE: list = []


def _settle_all(pipes: list, _ev: Event) -> None:
    """Timer callback of a collective: wake the pipes it left unarmed."""
    for pipe in pipes:
        pipe.settle()


def registry_mark() -> int:
    """Opaque cursor into the network registry (pass to live_networks)."""
    return len(_LIVE)


def live_networks(mark: int = 0) -> list:
    """Networks created since *mark* that are still alive."""
    return [net for ref in _LIVE[mark:] if (net := ref()) is not None]


@dataclass(frozen=True)
class NetworkConfig:
    """Interconnect parameters.

    Defaults approximate the SeaStar 2+ network of the Jaguar XT5
    partition (§V.A): ~6.4 GB/s peak injection per node, ~5 us
    zero-byte latency, ~50 ns per hop.
    """

    link_bandwidth: float = 6.4e9  # bytes/s per NIC direction
    latency: float = 5e-6  # seconds, zero-byte end-to-end
    hop_latency: float = 5e-8  # seconds per hop
    bisection_bandwidth_per_link: float = 4.8e9  # bytes/s per bisection link
    rdma_setup: float = 1e-5  # seconds to post/complete an RDMA descriptor

    def __post_init__(self) -> None:
        if self.link_bandwidth <= 0 or self.bisection_bandwidth_per_link <= 0:
            raise ValueError("bandwidths must be positive")
        if self.latency < 0 or self.hop_latency < 0 or self.rdma_setup < 0:
            raise ValueError("latencies must be non-negative")


@dataclass
class NIC:
    """Full-duplex network interface of one node."""

    tx: SharedBandwidth
    rx: SharedBandwidth
    bytes_tx: float = 0.0
    bytes_rx: float = 0.0


class Network:
    """The machine interconnect.

    Parameters
    ----------
    env:
        Simulation engine.
    topology:
        Torus carrying hop distances.
    config:
        Link parameters.
    """

    def __init__(
        self,
        env: Engine,
        topology: TorusTopology,
        config: Optional[NetworkConfig] = None,
    ):
        self.env = env
        self.topology = topology
        self.config = config or NetworkConfig()
        self._nics: dict[int, NIC] = {}
        bis_rate = (
            self.config.bisection_bandwidth_per_link * topology.bisection_links()
        )
        #: aggregate cross-machine backbone; transfers traverse it weighted
        #: by how far they travel relative to the machine's average.
        self.backbone = SharedBandwidth(env, bis_rate)
        self._avg_hops = max(topology.average_hops(), 1e-9)
        #: fault-injection hook: node -> [(start, end, factor), ...]
        self._degrade_windows: dict[int, list[tuple[float, float, float]]] = {}
        # -- regional layering (RegionalTopology only) --------------------
        #: whether the topology carves nodes into named regions
        self.regional = hasattr(topology, "region_of")
        #: extra-latency windows per region pair: {pair: [(start, end, extra)]}
        self._region_windows: dict[frozenset, list[tuple[float, float, float]]] = {}
        #: bytes moved between each region pair (sorted-name key)
        self.region_bytes: dict[tuple[str, str], float] = {}
        #: deliberate reference cycle.  Harnesses read a run's clock and
        #: byte counters through live_networks() right after the call that
        #: built the simulation returns, when nothing else references the
        #: network any more; the cycle defers its collection to the next gc
        #: pass instead of the moment the last caller frame unwinds.
        self._keepalive = self
        _LIVE.append(weakref.ref(self))

    # -- fault hooks -------------------------------------------------------
    def degrade_link(
        self, node: int, start: float, end: float, factor: float
    ) -> None:
        """Multiply *node*'s NIC capacity by *factor* during [start, end).

        Deterministic fault-injection hook: a flaky link or congested
        router port.  Windows compose multiplicatively when they overlap.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("degradation factor must be in (0, 1]")
        if end <= start:
            raise ValueError("degradation window must have end > start")
        self._degrade_windows.setdefault(node, []).append((start, end, factor))
        nic = self._nics.get(node)
        if nic is not None and nic.tx.degradation is None:
            nic.tx.degradation = nic.rx.degradation = self._link_mult(node)

    def _link_mult(self, node: int) -> Optional[Callable[[float], float]]:
        """Degradation hook of *node*'s pipes, or None while it has no window.

        A pipe without a hook skips two Python calls per membership
        change, so NICs only get one once ``degrade_link`` names them.
        """
        windows = self._degrade_windows.get(node)
        if windows is None:
            return None

        def mult(now: float) -> float:
            m = 1.0
            for start, end, factor in windows:
                if start <= now < end:
                    m *= factor
            return m

        return mult

    # -- regional latency --------------------------------------------------
    def region_extra_window(
        self, region_a: str, region_b: str, start: float, end: float, extra: float
    ) -> None:
        """Add *extra* seconds to cross-``(region_a, region_b)`` transfers
        posted during ``[start, end)``.

        The regional fault primitive: a slow inter-site link (small
        ``extra``) or a partition/flap (``extra`` well past the fetch
        timeout, so pulls posted into the window are abandoned and
        retried after it heals).  Windows stack additively when they
        overlap; both directions are affected symmetrically.
        """
        if not self.regional:
            raise ValueError("network topology has no regions")
        # validate the names through the topology
        self.topology.latency_class(region_a, region_b)
        if region_a == region_b:
            raise ValueError("region window needs two distinct regions")
        if end <= start:
            raise ValueError("region window must have end > start")
        if extra < 0:
            raise ValueError("extra latency must be non-negative")
        key = frozenset((region_a, region_b))
        self._region_windows.setdefault(key, []).append((start, end, extra))

    def _regional_extra(self, src: int, dst: int, now: float) -> float:
        """Static pair latency + any active window extras for src->dst."""
        topo = self.topology
        ra, rb = topo.region_of(src), topo.region_of(dst)
        if ra == rb:
            return 0.0
        extra = topo.latency_class(ra, rb).extra_latency
        windows = self._region_windows.get(frozenset((ra, rb)))
        if windows:
            for start, end, window_extra in windows:
                if start <= now < end:
                    extra += window_extra
        return extra

    def _account_region_bytes(self, src: int, dst: int, nbytes: float) -> None:
        topo = self.topology
        key = tuple(sorted((topo.region_of(src), topo.region_of(dst))))
        self.region_bytes[key] = self.region_bytes.get(key, 0.0) + nbytes

    # -- NIC management ---------------------------------------------------
    def nic(self, node: int) -> NIC:
        """Lazily-created NIC of *node*."""
        entry = self._nics.get(node)
        if entry is None:
            mult = self._link_mult(node)
            entry = NIC(
                tx=SharedBandwidth(
                    self.env, self.config.link_bandwidth, degradation=mult
                ),
                rx=SharedBandwidth(
                    self.env, self.config.link_bandwidth, degradation=mult
                ),
            )
            self._nics[node] = entry
        return entry

    # -- point-to-point ----------------------------------------------------
    def transfer(
        self, src: int, dst: int, nbytes: float, *, rdma: bool = False
    ) -> Generator:
        """Process body: move *nbytes* from node *src* to node *dst*.

        Yields until the transfer completes; returns elapsed time.
        ``rdma=True`` adds the one-sided descriptor setup cost (used by
        the staging area's server-directed fetches).
        """
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        start = self.env.now
        cfg = self.config
        latency = cfg.latency + cfg.hop_latency * self.topology.hops(src, dst)
        if rdma:
            latency += cfg.rdma_setup
        if self.regional:
            # cross-region latency class + any partition/flap windows
            # active right now (0.0 intra-region, so a regional topology
            # with all-local classes stays byte-identical to the torus)
            latency += self._regional_extra(src, dst, self.env.now)
        yield self.env.timeout(latency)
        if nbytes > 0 and src != dst:
            snic, dnic = self.nic(src), self.nic(dst)
            hops = max(self.topology.hops(src, dst), 1)
            backbone_weight = hops / self._avg_hops
            done = self.env.all_of(
                [
                    snic.tx.transfer(nbytes),
                    dnic.rx.transfer(nbytes),
                    self.backbone.transfer(nbytes, weight=backbone_weight),
                ]
            )
            yield done
            snic.bytes_tx += nbytes
            dnic.bytes_rx += nbytes
            if self.regional:
                self._account_region_bytes(src, dst, nbytes)
            obs = self.env.obs
            if obs is not None:
                obs.metrics.inc("net_bytes", nbytes)
                obs.metrics.inc("net_transfers")
                if rdma:
                    obs.metrics.inc("net_rdma_transfers")
        return self.env.now - start

    def transfer_event(
        self, src: int, dst: int, nbytes: float, *, rdma: bool = False
    ) -> Event:
        """Event variant of :meth:`transfer` (fires at completion)."""
        return self.env.process(self.transfer(src, dst, nbytes, rdma=rdma))

    # -- analytic collective models -----------------------------------------
    def collective_time(self, kind: str, nprocs: int, nbytes: float) -> float:
        """Uncontended alpha-beta estimate of a collective's duration.

        ``nbytes`` is the per-rank payload (for alltoall: per-pair).
        Models follow Thakur et al.'s MPICH algorithms.
        """
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if nprocs == 1:
            return 0.0
        cfg = self.config
        a, b = cfg.latency, 1.0 / cfg.link_bandwidth
        p = nprocs
        lg = ceil(log2(p))
        if kind == "barrier":
            return 2.0 * a * lg
        if kind == "bcast":
            # scatter + allgather (van de Geijn) for large msgs
            return (lg + p - 1) * a + 2.0 * nbytes * b * (p - 1) / p
        if kind in ("reduce", "allreduce"):
            # Rabenseifner: reduce-scatter + (all)gather
            fac = 2.0 if kind == "allreduce" else 1.5
            return 2.0 * lg * a + fac * nbytes * b * (p - 1) / p
        if kind in ("gather", "scatter"):
            return lg * a + nbytes * b * (p - 1) / p * p  # root link bound
        if kind == "allgather":
            return (p - 1) * a + nbytes * b * (p - 1)
        if kind in ("alltoall", "alltoallv"):
            # pairwise exchange (p-1 rounds, nbytes per pair), bounded
            # below by bisection congestion: half the p^2*n job volume
            # crosses the machine bisection, which a torus sustains at
            # ~25% of peak under all-to-all traffic patterns.
            pairwise = (p - 1) * (a + nbytes * b)
            bis_links = 2.0 * max(p, 2) ** (2.0 / 3.0)
            # adaptive routing sustains ~40% of peak bisection under
            # uniform all-to-all traffic on a 3-D torus
            bis_bw = 0.40 * bis_links * cfg.bisection_bandwidth_per_link
            congestion = (p * p * nbytes / 2.0) / bis_bw
            return max(pairwise, congestion)
        raise ValueError(f"unknown collective kind {kind!r}")

    def contended_collective(
        self,
        kind: str,
        ranks_nodes: list[int],
        nbytes: float,
        *,
        model_nprocs: Optional[int] = None,
    ) -> Generator:
        """Process body: run a collective among *ranks_nodes*.

        The analytic latency part is a plain timeout; the bandwidth part
        is realised by streaming each rank's wire volume through its NIC
        pipes so that concurrent staging traffic causes the slowdown the
        paper measures.  ``model_nprocs`` prices the collective for a
        larger effective job when the listed nodes are representatives.
        Returns elapsed time.
        """
        start = self.env.now
        if (model_nprocs or len(ranks_nodes)) <= 1 or len(ranks_nodes) <= 1:
            return 0.0
        done = self.env.event()
        self.start_collective(
            kind, ranks_nodes, nbytes, done.succeed, model_nprocs=model_nprocs
        )
        yield done
        return self.env.now - start

    def start_collective(
        self,
        kind: str,
        ranks_nodes: list[int],
        nbytes: float,
        on_done: Callable[[], object],
        *,
        model_nprocs: Optional[int] = None,
    ) -> None:
        """Callback form of :meth:`contended_collective`.

        Calls ``on_done()`` once, from an engine callback, when the
        collective's latency and wire phases are over.
        """
        p = model_nprocs or len(ranks_nodes)
        cfg = self.config
        latency = cfg.latency * ceil(log2(p))
        wire_time = max(self.collective_time(kind, p, nbytes) - latency, 0.0)
        wire_bytes = wire_time * cfg.link_bandwidth
        if wire_bytes > 0:
            self.env.timeout(latency)._add_callback(
                lambda _ev: self._enter_wire(ranks_nodes, wire_bytes, on_done)
            )
        else:
            self.env.timeout(latency)._add_callback(lambda _ev: on_done())

    def _enter_wire(
        self,
        ranks_nodes: list[int],
        wire_bytes: float,
        on_done: Callable[[], object],
    ) -> None:
        """Occupy every rank's NIC pipes with *wire_bytes*; then ``on_done()``.

        The ranks a node hosts are one weighted entry per pipe.  A pipe
        that was idle is left unarmed (see ``SharedBandwidth``): this
        collective owns its wakeup, one timer per distinct delay — one
        in all when every node hosts as many ranks at the same link
        rate — and settles the pipe at exactly the instant the pipe
        would have woken itself.
        """
        per_node = Counter(ranks_nodes)
        pending = 2 * len(per_node)

        def entry_done(_now: float) -> None:
            nonlocal pending
            pending -= 1
            if pending == 0:
                on_done()

        owned: dict[float, list[SharedBandwidth]] = {}
        for node, count in per_node.items():
            nic = self.nic(node)
            for pipe in (nic.tx, nic.rx):
                delay = pipe.occupy(wire_bytes, count, entry_done)
                if delay is not None:
                    owned.setdefault(delay, []).append(pipe)
        for delay, pipes in owned.items():
            self.env.timeout(delay)._add_callback(partial(_settle_all, pipes))

    # -- accounting --------------------------------------------------------
    def total_bytes(self) -> float:
        """Total bytes ejected into all NIC RX pipes so far."""
        return sum(n.bytes_rx for n in self._nics.values())
