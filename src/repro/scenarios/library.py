"""The shipped scenario library: nine named adversarial conditions.

Each scenario is registered with its threat-model row (the adversary it
models and the :mod:`repro.check` invariants that must survive it —
mirrored verbatim in THREATS.md, which a test keeps in sync) and an
applier that turns the declarative :class:`~repro.scenarios.base.Scenario`
into seeded :class:`~repro.faults.FaultInjector` primitives.

The library deliberately spans every class of adversity the pipeline
claims to absorb:

==================  ====================================================
hotspot-skew        Zipfian routing keys concentrate load on few stagers
straggler-producer  a slice of compute nodes writes at a trickle
bursty-producer     on/off duty-cycle load (coordinated dump storms)
corrupt-chunk       fetches deliver garbage bytes (checksum rejection)
withheld-fetch      RDMA gets silently never answer (timeout-only exit)
regional-partition  a cross-region link partitions (optionally flapping)
slow-region         one region's links are uniformly distant/congested
kitchen-sink        everything at once, plus a crash and an FS stall
staging-crash       one staging node dies mid-step (the recovery run)
==================  ====================================================
"""

from __future__ import annotations

from .base import ScenarioContext, ScenarioSpec, TargetSelector, register
from .workload import CRASH_T

__all__ = ["register_library"]


# -- appliers ---------------------------------------------------------------
def _apply_hotspot_skew(ctx: ScenarioContext) -> None:
    """Replace uniform routing with a seeded Zipf assignment.

    Intensity steers the Zipf exponent: 0 -> barely skewed, 1 -> almost
    every rank hammers the single hottest staging rank.  No faults are
    fired — the scenario stresses the hot rank's fetch queue and node
    memory, so the checker stays in exact (unperturbed) mode.
    """
    s = ctx.scenario
    a = 1.05 + 3.0 * s.intensity
    order = [int(x) for x in ctx.rng.permutation(ctx.nstaging)]
    table = [
        order[(int(ctx.rng.zipf(a)) - 1) % ctx.nstaging] for _ in range(ctx.ncompute)
    ]
    client = ctx.predata.client
    client._route = lambda rank, ncompute, nstaging: table[rank % len(table)]
    ctx.plan("hotspot_route", 0.0, (a, tuple(order), tuple(table)))


def _apply_straggler_producer(ctx: ScenarioContext) -> None:
    """A seeded slice of compute nodes' NICs run at a trickle."""
    s = ctx.scenario
    start, end = s.window
    factor = max(0.02, 1.0 - 0.95 * s.intensity)
    for rank in s.targets.pick_ranks(ctx.rng, ctx.ncompute):
        node = ctx.compute_node_of(rank)
        ctx.injector.degrade_link(
            node, at=start, duration=end - start, factor=factor
        )
        ctx.plan("straggler", start, (rank, node, factor))


def _apply_bursty_producer(ctx: ScenarioContext) -> None:
    """On/off duty-cycle load: targets stall during every 'off' slice."""
    s = ctx.scenario
    start, end = s.window
    period = max(1e-3, s.param("period", 1.0))
    duty = min(0.95, max(0.05, s.param("duty", 0.5)))
    factor = max(0.02, 1.0 - 0.95 * s.intensity)
    ranks = s.targets.pick_ranks(ctx.rng, ctx.ncompute)
    t = start
    while t < end:
        off_start = t + duty * period
        off_end = min(end, t + period)
        if off_end > off_start:
            for rank in ranks:
                node = ctx.compute_node_of(rank)
                ctx.injector.degrade_link(
                    node, at=off_start, duration=off_end - off_start, factor=factor
                )
            ctx.plan("burst_off", off_start, (tuple(ranks), off_end, factor))
        t += period


def _pick_pairs(ctx: ScenarioContext) -> list[tuple[int, int]]:
    """A seeded draw of (compute_rank, step) chunks for fetch faults."""
    s = ctx.scenario
    total = ctx.ncompute * ctx.nsteps
    k = min(total, max(1, round(s.intensity * s.targets.fraction * total)))
    flat = [int(x) for x in ctx.rng.choice(total, size=k, replace=False)]
    return sorted((i // ctx.nsteps, i % ctx.nsteps) for i in flat)


def _apply_corrupt_chunk(ctx: ScenarioContext) -> None:
    """First fetch of each chosen chunk delivers garbage bytes."""
    for rank, step in _pick_pairs(ctx):
        ctx.injector.corrupt_chunk(rank, step, attempts=1)
        ctx.plan("corrupt_chunk", 0.0, (rank, step))


def _apply_withheld_fetch(ctx: ScenarioContext) -> None:
    """First fetch of each chosen chunk silently never answers."""
    for rank, step in _pick_pairs(ctx):
        ctx.injector.withhold_fetch(rank, step)
        ctx.plan("withhold_fetch", 0.0, (rank, step))


def _pick_region_pair(ctx: ScenarioContext) -> tuple[str, str]:
    """A seeded (compute-side, staging-side) region pair to cut.

    The second region is the one hosting a seeded staging node, so the
    partition actually crosses fetch traffic.
    """
    topo = ctx.machine.network.topology
    staging_ids = list(ctx.machine.staging_node_ids)
    node = staging_ids[int(ctx.rng.integers(0, len(staging_ids)))]
    region_b = topo.region_of(node)
    others = [r for r in topo.regions if r != region_b]
    return others[int(ctx.rng.integers(0, len(others)))], region_b


def _apply_regional_partition(ctx: ScenarioContext) -> None:
    """Cut (or flap) the link between two regions.

    The extra latency is far above any sane fetch timeout, so transfers
    posted inside a partitioned slice only complete via retry after the
    window closes.  ``flaps`` > 1 splits the window into alternating
    partitioned/healthy slices.
    """
    s = ctx.scenario
    start, end = s.window
    region_a, region_b = _pick_region_pair(ctx)
    extra = 3.0 + 27.0 * s.intensity
    flaps = max(1, int(s.param("flaps", 1)))
    slice_len = (end - start) / (2 * flaps - 1)
    for i in range(flaps):
        at = start + 2 * i * slice_len
        ctx.injector.partition_regions(
            region_a, region_b, at=at, duration=slice_len, extra=extra
        )
        ctx.plan("partition", at, (region_a, region_b, slice_len, extra))


def _apply_slow_region(ctx: ScenarioContext) -> None:
    """One region becomes uniformly distant: every cross-region
    transfer in or out pays a small extra latency (below the fetch
    timeout — progress degrades, it does not stop)."""
    s = ctx.scenario
    start, end = s.window
    topo = ctx.machine.network.topology
    region = topo.regions[int(ctx.rng.integers(0, len(topo.regions)))]
    extra = 0.02 + 0.18 * s.intensity
    ctx.injector.slow_region(region, at=start, duration=end - start, extra=extra)
    ctx.plan("slow_region", start, (region, end - start, extra))


def _apply_kitchen_sink(ctx: ScenarioContext) -> None:
    """Everything at once: compose every other scenario at reduced
    intensity, then crash a staging node mid-window and stall the file
    system — the union of adversities one deployment could plausibly
    see in a single bad hour."""
    from .base import get, make

    s = ctx.scenario
    start, end = s.window
    child_intensity = max(0.1, 0.5 * s.intensity)
    for kind in (
        "hotspot-skew",
        "straggler-producer",
        "bursty-producer",
        "corrupt-chunk",
        "withheld-fetch",
        "regional-partition",
        "slow-region",
    ):
        child = make(
            kind,
            name=f"sink:{kind}",
            seed=s.seed,
            intensity=child_intensity,
        )
        get(kind).apply(ctx.child(child))
    crash_at = start + 0.45 * (end - start)
    node = ctx.injector.crash_staging_node(at=crash_at)
    ctx.plan("crash_staging", crash_at, node)
    stall_at = start + 0.6 * (end - start)
    ctx.injector.stall_filesystem(at=stall_at, duration=0.3 * (end - start))
    ctx.plan("fs_stall", stall_at, 0.3 * (end - start))


def _apply_staging_crash(ctx: ScenarioContext) -> None:
    """Kill one seeded staging node at :data:`CRASH_T`, 0.2 s into the
    chaos workload's step 1 (intensity only switches the crash on)."""
    node = ctx.injector.crash_staging_node(at=CRASH_T)
    ctx.plan("crash_staging", CRASH_T, node)


# -- registration -----------------------------------------------------------
#: the Checker ledgers a flow-less scenario run feeds (credit-ledger
#: needs flow control, which no scenario run enables)
_CONSERVATION = (
    "chunk-conservation",
    "byte-ledger",
    "memory-ledger",
    "scheduling-rule",
)
_ALL = _CONSERVATION + ("zero-dump-loss", "seeded-determinism")


def register_library() -> None:
    """Register the nine shipped scenarios (idempotent)."""
    from .base import REGISTRY

    if "hotspot-skew" in REGISTRY:
        return
    register(
        ScenarioSpec(
            name="hotspot-skew",
            summary="Zipfian routing keys concentrate load on few stagers",
            threat=(
                "A skewed application decomposition (or adversarial key "
                "distribution) routes most dumps at one staging rank, "
                "starving its buffer pool while others idle."
            ),
            invariants=_ALL,
            apply=_apply_hotspot_skew,
        )
    )
    register(
        ScenarioSpec(
            name="straggler-producer",
            summary="a slice of compute nodes writes at a trickle",
            threat=(
                "OS jitter or a failing NIC leaves a few producers orders "
                "of magnitude slower, so their steps trail the rest of "
                "the job and stall collective progress."
            ),
            invariants=_ALL,
            apply=_apply_straggler_producer,
        )
    )
    register(
        ScenarioSpec(
            name="bursty-producer",
            summary="on/off duty-cycle load (coordinated dump storms)",
            threat=(
                "Tightly synchronised applications dump in storms: full "
                "line-rate bursts alternating with silence, stressing "
                "credit admission and buffer recycling at the transitions."
            ),
            invariants=_ALL,
            apply=_apply_bursty_producer,
            defaults={"period": 1.0, "duty": 0.5},
        )
    )
    register(
        ScenarioSpec(
            name="corrupt-chunk",
            summary="fetches deliver garbage bytes (checksum rejection)",
            threat=(
                "Bit flips in transit or a buggy transport deliver a "
                "well-formed RDMA completion carrying garbage; undetected, "
                "the garbage would be indexed and dumped as real data."
            ),
            invariants=_ALL,
            apply=_apply_corrupt_chunk,
            defaults={"targets": TargetSelector(fraction=0.2)},
        )
    )
    register(
        ScenarioSpec(
            name="withheld-fetch",
            summary="RDMA gets silently never answer (timeout-only exit)",
            threat=(
                "A wedged peer or lost completion queue entry means the "
                "get never completes and never errors — only a local "
                "deadline distinguishes it from a slow transfer."
            ),
            invariants=_ALL,
            apply=_apply_withheld_fetch,
        )
    )
    register(
        ScenarioSpec(
            name="regional-partition",
            summary="a cross-region link partitions (optionally flapping)",
            threat=(
                "An inter-region trunk fails (or flaps): traffic between "
                "two regions stalls for whole windows while intra-region "
                "traffic is healthy, so naive timeouts misfire."
            ),
            invariants=_ALL,
            apply=_apply_regional_partition,
            needs_regions=True,
            defaults={"flaps": 1},
        )
    )
    register(
        ScenarioSpec(
            name="slow-region",
            summary="one region's links are uniformly distant/congested",
            threat=(
                "A congested or physically distant region adds latency to "
                "every cross-region transfer — progress must degrade "
                "smoothly instead of collapsing into timeout storms."
            ),
            invariants=_ALL,
            apply=_apply_slow_region,
            needs_regions=True,
        )
    )
    register(
        ScenarioSpec(
            name="kitchen-sink",
            summary="everything at once, plus a crash and an FS stall",
            threat=(
                "The compound worst case: every adversary above strikes "
                "in one window while a staging node dies and the file "
                "system stalls — nothing about the invariants may bend."
            ),
            invariants=_ALL,
            apply=_apply_kitchen_sink,
            needs_regions=True,
        )
    )
    register(
        ScenarioSpec(
            name="staging-crash",
            summary="one staging node dies mid-step (the recovery run)",
            threat=(
                "A staging node crashes while a step is in flight: the "
                "survivors must detect it, adopt its compute clients and "
                "re-execute the step, or degrade to synchronous writes "
                "when no stager is left — no dump may be lost."
            ),
            invariants=_ALL,
            apply=_apply_staging_crash,
        )
    )
