"""Staging-area failure recovery: detection wiring + restart protocol.

The :class:`ResilienceController` ties the pieces together:

1. **Crash**: a staging node's ``fail()`` listener immediately kills the
   staging processes hosted on it (their work is lost); the rest of the
   world only learns of the death through heartbeats.
2. **Detection**: when the :class:`~repro.faults.detector.FailureDetector`
   declares ranks dead, the controller deactivates them in the staging
   world (pending collectives complete among survivors), remaps their
   compute clients onto survivors via the client's failover routing, and
   computes the globally agreed *restart step* — the minimum uncommitted
   step across survivors.
3. **Restart**: survivors are interrupted with
   :class:`~repro.faults.errors.RecoveryRestart` and re-run the step
   from the top in a fresh collective epoch.  Because compute-side
   buffers are only released at the per-step *commit barrier*, every
   uncommitted dump is still fetchable; the controller purges the dead
   ranks' request mailboxes and re-delivers all uncommitted dump notices
   to their new owners.
4. **Degradation**: when survivors drop below
   ``ResilienceConfig.min_survivors`` the client enters degraded mode —
   subsequent dumps go through the synchronous fallback transport
   (In-Compute-Node writes).  If *no* stager survives, the controller
   replays every uncommitted buffered dump through the fallback as
   well, so no dump is ever lost.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.adios.group import OutputStep
from repro.faults.config import ResilienceConfig
from repro.faults.detector import FailureDetector
from repro.faults.errors import RecoveryRestart
from repro.machine.node import NodeFailure

__all__ = ["ResilienceController"]


class _EnvComm:
    """Minimal communicator stand-in for fallback replay writes."""

    def __init__(self, env, rank: int = 0):
        self.env = env
        self.rank = rank


class ResilienceController:
    """Orchestrates failure detection and staging recovery.

    Parameters (duck-typed to avoid layering cycles)
    ------------------------------------------------
    env: simulation engine.
    machine: the :class:`~repro.machine.machine.Machine`.
    service: the :class:`~repro.core.staging.StagingService`.
    config: :class:`ResilienceConfig` timing/threshold knobs.
    fallback: :class:`~repro.adios.io.IOMethod` used for degraded and
        replayed writes (typically ``SyncMPIIO``).
    """

    def __init__(self, env, machine, service, config: ResilienceConfig, *, fallback=None):
        self.env = env
        self.machine = machine
        self.service = service
        self.world = service.world
        self.client = service.client
        self.config = config
        self.fallback = fallback
        self.detector = FailureDetector(
            env,
            interval=config.heartbeat_interval,
            timeout=config.heartbeat_timeout,
        )
        #: chronological protocol events: (kind, sim_time, detail)
        self.timeline: list[tuple[str, float, object]] = []
        self.epoch = 0
        self._armed = False

    def _event(self, kind: str, detail: object) -> None:
        """Record a protocol event on the timeline (and, when an
        observability sink is bound, mirror it as a trace instant)."""
        self.timeline.append((kind, self.env.now, detail))
        obs = self.env.obs
        if obs is not None:
            obs.instant(kind, "recovery", tid="controller", detail=repr(detail))
            obs.metrics.inc(f"recovery_{kind}")

    # -- wiring -----------------------------------------------------------
    def arm(self) -> None:
        """Install crash listeners + heartbeats (after ``service.start()``)."""
        if self._armed:
            return
        self._armed = True
        watched_nodes = set()
        for rank in range(self.world.size):
            node = self.machine.node(self.world.rank_nodes[rank])
            self.detector.watch(rank, lambda n=node: n.alive)
            if node.id not in watched_nodes:
                watched_nodes.add(node.id)
                node.add_failure_listener(self._on_node_crash)
        self.detector.on_failure(self._on_detected)
        self.detector.start()
        self.client._orphan_sink = self._replay_one
        self.env.process(self._supervisor(), name="resilience-supervisor")

    def _supervisor(self) -> Generator:
        """Stop the heartbeats once the staging service has wound down."""
        for proc in self.service._procs:
            if not proc.triggered:
                try:
                    yield proc
                except Exception:
                    pass  # a failed rank proc is still 'wound down'
        # If the service wound down *because* nodes crashed (e.g. every
        # stager died at once), detection must still run its course so
        # degradation/replay can salvage the uncommitted dumps — don't
        # silence the heartbeats while a death is pending detection.
        while self._undetected_dead_ranks():
            yield self.env.timeout(self.detector.interval)
        self.detector.stop()
        return None

    def _undetected_dead_ranks(self) -> list[int]:
        """Watched ranks whose node is down but not yet declared failed."""
        return [
            r
            for r in range(self.world.size)
            if not self.machine.node(self.world.rank_nodes[r]).alive
            and r not in self.detector.failed
        ]

    # -- crash-time action -------------------------------------------------
    def _on_node_crash(self, node) -> None:
        """Instantly kill staging processes hosted on the dead node."""
        self._event("crash", node.id)
        for rank in range(self.world.size):
            if self.world.rank_nodes[rank] != node.id:
                continue
            proc = self._rank_proc(rank)
            if proc is not None and proc.is_alive:
                proc.interrupt(NodeFailure(node.id))

    def _rank_proc(self, rank: int):
        procs = self.service._procs
        return procs[rank] if rank < len(procs) else None

    # -- detection-time recovery -------------------------------------------
    def _on_detected(self, ranks: list[int]) -> None:
        self._event("detected", list(ranks))
        for rank in ranks:
            self.world.deactivate_rank(rank)
            self.client.mark_stager_failed(rank)
        if self.client.flow is not None:
            # Move the dead ranks' outstanding byte credits to the
            # failover owners (routing already excludes the dead), so
            # adopted chunks release cleanly and budgets don't leak.
            for rank in ranks:
                self.client.flow.on_stager_failed(rank, self._flow_reroute)
        survivors = [
            r for r in self.world.active_ranks if r not in self.detector.failed
        ]
        if len(survivors) < self.config.min_survivors:
            self.client.enter_degraded_mode()
            self._event("degraded", len(survivors))
        if survivors:
            self._restart_survivors(survivors)
        else:
            self._purge_boxes()
            self.env.process(self._replay_all(), name="fallback-replay")

    def _restart_survivors(self, survivors: list[int]) -> None:
        alive_procs = {
            r: p
            for r in survivors
            if (p := self._rank_proc(r)) is not None and p.is_alive
        }
        if not alive_procs:
            # service already finished; only routing/degradation applies
            return
        self.epoch += 1
        restart_step = min(
            self.service._rank_step.get(r, 0) for r in alive_procs
        )
        self._event("recovery", {"step": restart_step, "epoch": self.epoch})
        for r in sorted(alive_procs):
            alive_procs[r].interrupt(RecoveryRestart(restart_step, self.epoch))
        self.world.reset_collectives()
        self._purge_boxes()
        # Dumps from steps that committed globally before the crash only
        # miss their release; uncommitted ones are re-delivered to the
        # failover owners for re-fetch.
        for (crank, step), request in sorted(self.client._requests_log.items()):
            if step < restart_step:
                self.client.commit(crank, step)
            else:
                self.env.process(
                    self._redeliver(crank, step, request),
                    name=f"redeliver c{crank}s{step}",
                )

    def _flow_reroute(self, compute_rank: int):
        """Surviving owner of one compute rank (None = nobody left)."""
        try:
            return self.client.route(compute_rank)
        except Exception:
            return None

    def _purge_boxes(self) -> None:
        for box in self.client._request_boxes.values():
            box.purge()

    def _redeliver(self, crank: int, step: int, request) -> Generator:
        """Re-send one logged dump notice to its current owner."""
        target = self.client.route(crank)
        nbytes = 256.0 if request is not None else 64.0
        src_node = (
            request.compute_node
            if request is not None
            else self.client.machine.compute_node_ids[
                crank % len(self.client.machine.compute_node_ids)
            ]
        )
        yield from self.machine.network.transfer(
            src_node,
            self.client.staging_nodes[target % len(self.client.staging_nodes)],
            nbytes,
        )
        target = self.client.route(crank)  # owner may have died meanwhile
        self.client.request_box(target).deliver(crank, step, request)
        return None

    # -- zero-survivor replay ----------------------------------------------
    def _replay_one(self, crank: int, step: int) -> Generator:
        """Write one uncommitted buffered dump through the fallback."""
        payload = self.client.buffer_payload(crank, step)
        if payload is None or self.fallback is None:
            self.client.commit(crank, step)
            return None
        step_obj = OutputStep.unpack(self.service.group, payload)
        yield from self.fallback.write_step(_EnvComm(self.env, crank), step_obj)
        if self.env.check is not None:
            # the packed chunk lands through the fallback, not via Map
            self.env.check.on_degraded(
                self.client.key(crank, step), step_obj.nbytes_logical
            )
        self.client.commit(crank, step)
        self._event("replayed", (crank, step))
        return None

    def _replay_all(self) -> Generator:
        """All stagers died: salvage every uncommitted dump synchronously."""
        for (crank, step) in sorted(self.client._requests_log):
            yield from self._replay_one(crank, step)
        return None

    # -- reporting ----------------------------------------------------------
    def detection_latency(self) -> Optional[float]:
        """Seconds from first crash to its detection (None if no crash)."""
        crash = next((t for k, t, _ in self.timeline if k == "crash"), None)
        det = next((t for k, t, _ in self.timeline if k == "detected"), None)
        if crash is None or det is None:
            return None
        return det - crash
