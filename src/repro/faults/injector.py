"""The fault-plan driver: inject faults into the service, orchestrate recovery.

:class:`ServiceFaultDriver` replays a :class:`~repro.faults.plan.FaultPlan`
through a live :class:`~repro.service.service.StreamingService`'s event
scheduler and runs the self-healing machinery around it: edge crashes
pause the edge's station and uplink and fail out its in-flight chunks,
sessions are failed over to healthy edges, a per-edge
:class:`~repro.faults.breaker.CircuitBreaker` sheds pushes while an edge
is sick, WAN windows partition an uplink, stream stalls pause a camera's
LAN link, and an optional watchdog closes sessions that stop making
progress.

No driver exists on the fault-free path — a service built without a plan
or a :class:`ResilienceConfig` never constructs one, so the default
pipeline stays bit-identical to the seed.  With a driver installed, all
injection and recovery happens as ordinary events on the one scheduler
heap, which is what makes recovery traces reproducible under any clock
driver (the chaos-soak contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional

from ..config import POSITIVE, real_number
from ..errors import FaultError
from .breaker import CircuitBreaker
from .plan import EdgeCrash, FaultPlan, StreamStall, WanDegradation
from .stats import FaultStats, RecoveryTrace

if TYPE_CHECKING:  # pragma: no cover - typing only; see the import note below.
    from ..service.service import StreamingService


def _closed(session) -> bool:
    """Whether a session is CLOSED.

    ``repro.service.service`` imports this module at its top level, so
    importing :class:`SessionState` here eagerly would deadlock the
    package initialisation; comparing the enum value is cycle-free.
    """
    return session.state.value == "closed"


@dataclass(frozen=True)
class ResilienceConfig:
    """Self-healing knobs of the streaming service.

    Attributes:
        breaker_cooldown_seconds: OPEN -> HALF_OPEN cooldown of an edge's
            circuit breaker (it opens when the edge goes down).
        stall_timeout_seconds: A session making no progress (no accepted
            push, no completion) for longer than this is closed with
            reason ``"stalled"`` and requeued to the client.  ``None``
            (the default) disables the watchdog.  Must exceed the
            feeders' push cadence or healthy-but-slow streams get reaped.
        watchdog_period_seconds: How often the stall watchdog scans.
    """

    breaker_cooldown_seconds: float = 5.0
    stall_timeout_seconds: Optional[float] = None
    watchdog_period_seconds: float = 1.0

    def __post_init__(self) -> None:
        # Finite reals > 0 (a bool is no count of seconds): a nan cooldown
        # admits a probe the instant a breaker trips, and a nan timeout
        # silently turns the watchdog off.
        for name in ("breaker_cooldown_seconds", "watchdog_period_seconds"):
            real_number(getattr(self, name), name, FaultError, **POSITIVE)
        if self.stall_timeout_seconds is not None:
            real_number(self.stall_timeout_seconds, "stall_timeout_seconds",
                        FaultError, **POSITIVE)


class ServiceFaultDriver:
    """Injects a :class:`FaultPlan` into a live streaming service.

    Built by :class:`StreamingService` when ``faults`` or ``resilience``
    is passed; schedules every spec of the plan as control events in its
    constructor (the service clock is still at 0 then), and exposes the
    hooks the service pipeline calls back into.  Crash / restart /
    WAN-partition events act on the resources of the service's
    :class:`~repro.cluster.topology.StageChain`; a permanently dead
    edge's sessions are failed over, a per-edge :class:`CircuitBreaker`
    sheds pushes, camera uplinks stall and stalled sessions are reaped.

    A resource can be held down by several causes at once (a WAN
    partition overlapping an edge outage); it stays paused until every
    cause has released it, so one fault ending never lifts another.

    Attributes:
        stats: Fault/recovery counters (folded into reports).
        trace: The deterministic :class:`RecoveryTrace` CI diffs.
        edge_online: Per-edge liveness (permanent crashes clear it).
        breakers: Per-edge :class:`CircuitBreaker`.
    """

    def __init__(self, service: "StreamingService", plan: FaultPlan,
                 resilience: ResilienceConfig) -> None:
        chain = service.chain
        num_edges = len(chain.edge_stations)
        plan.validate_for(num_edges)
        self.service = service
        self.chain = chain
        self.scheduler = chain.scheduler
        self.plan = plan
        self.resilience = resilience
        self.stats = FaultStats()
        self.trace = RecoveryTrace()
        self.edge_online: List[bool] = [True] * num_edges
        self._failover_counter = 0
        #: resource -> the fault specs currently pausing it.
        self._holds: Dict[object, set] = {}
        for crash in plan.edge_crashes:
            self.scheduler.schedule_at(crash.at_seconds, self._crash, crash)
        for window in plan.wan_degradations:
            self.scheduler.schedule_at(window.at_seconds,
                                       self._wan_down, window)
        self.breakers: Dict[int, CircuitBreaker] = {
            index: CircuitBreaker(
                name=f"edge:{index}",
                cooldown_seconds=resilience.breaker_cooldown_seconds,
                on_open=partial(self._breaker_opened, index))
            for index in range(service.num_edge_servers)}
        self._stalled: set = set()
        for stall in plan.stream_stalls:
            self.scheduler.schedule_at(stall.at_seconds, self._stall, stall)
        if resilience.stall_timeout_seconds is not None:
            self.scheduler.schedule(resilience.watchdog_period_seconds,
                                    self._watchdog_tick)

    def _hold(self, resource, cause) -> None:
        """Pause ``resource`` on behalf of ``cause``."""
        self._holds.setdefault(resource, set()).add(cause)
        resource.pause()

    def _release(self, resource, cause) -> bool:
        """Drop ``cause``'s hold; resume (and return ``True``) only when
        no other cause still holds the resource."""
        causes = self._holds.get(resource, set())
        causes.discard(cause)
        if causes:
            return False
        resource.resume()
        return True

    def _crash(self, spec: EdgeCrash) -> None:
        index = spec.edge_index
        if not self.edge_online[index]:
            return  # already permanently down; a second crash is moot
        self.stats.crashes_seen += 1
        mode = ("permanent" if spec.permanent
                else f"restart={spec.restart_after_seconds:.6f}")
        self.trace.record(self.scheduler.now, "edge-crash",
                          f"edge={index} {mode}")
        resources = self.chain.edge_resources(index)
        # Pause BEFORE failing: requeued work must not start on the dead
        # edge within the same event.
        for resource in resources:
            self._hold(resource, spec)
        self.breakers[index].trip(self.scheduler.now)
        if spec.permanent:
            self.edge_online[index] = False
            self._relocate(index)
        else:
            self.scheduler.schedule(spec.restart_after_seconds,
                                    self._restart, spec)
        # on_fail hooks fire here: permanent crashes requeue onto the
        # failed-over edges, transient ones back onto the paused
        # resources (they wait for the restart).
        for resource in resources:
            resource.fail_all("edge-crash")

    def _restart(self, spec: EdgeCrash) -> None:
        index = spec.edge_index
        if not self.edge_online[index]:
            return  # a permanent crash landed during the outage
        self.stats.edges_restarted += 1
        self.trace.record(self.scheduler.now, "edge-restart",
                          f"edge={index}")
        for resource in self.chain.edge_resources(index):
            self._release(resource, spec)

    def _pick_healthy(self) -> Optional[int]:
        """Next failover target, round-robin over the healthy edges
        (``validate_for`` guarantees one survives)."""
        for _ in range(len(self.edge_online)):
            candidate = self._failover_counter % len(self.edge_online)
            self._failover_counter += 1
            if self.edge_online[candidate]:
                return candidate
        return None

    def _wan_down(self, spec: WanDegradation) -> None:
        index = spec.edge_index
        self.stats.wan_partitions += 1
        self.trace.record(self.scheduler.now, "wan-partition",
                          f"edge={index} "
                          f"duration={spec.duration_seconds:.6f}")
        self._hold(self.chain.wan_links[index], spec)
        self.scheduler.schedule(spec.duration_seconds, self._wan_up, spec)

    def _wan_up(self, spec: WanDegradation) -> None:
        now = self.scheduler.now
        index = spec.edge_index
        if self._release(self.chain.wan_links[index], spec):
            self.trace.record(now, "wan-restore", f"edge={index}")
        else:
            # Still held: by the edge's own outage (its restart resumes
            # the uplink) or by another partition window.
            holder = ("partitioned" if self.chain.edge_stations[index].online
                      else "edge-down")
            self.trace.record(now, "wan-restore-skipped",
                              f"edge={index} {holder}")


    # ------------------------------------------------------------------ #
    # Hooks the service pipeline calls
    # ------------------------------------------------------------------ #
    def push_refusal(self, edge_index: int) -> Optional[str]:
        """Why a push to ``edge_index`` must bounce (``None`` = admit).

        Consulted *last* in ``push_frames`` so that a granted half-open
        breaker probe is always followed by an actual submission.
        """
        if not self.edge_online[edge_index]:
            self.stats.breaker_rejections += 1
            return f"edge {edge_index} is offline"
        breaker = self.breakers[edge_index]
        if not breaker.allow(self.scheduler.now):
            self.stats.breaker_rejections += 1
            return f"edge {edge_index} breaker is {breaker.state.value}"
        return None

    def on_chunk_complete(self, run) -> None:
        """A chunk finished: its edge's breaker sees a success."""
        self.breakers[run.edge_index].record_success(self.scheduler.now)

    def on_chunk_failed(self, run, reason: str) -> None:
        """A stage submission was failed out; requeue it (or drop).

        The chain re-reads the session's edge at every stage entry, so
        requeueing after a failover lands on the session's new edge.
        The drop branch only triggers when no healthy edge remained —
        unreachable for plans that pass ``validate_for``, kept so a
        hand-built pathological plan degrades to accounting, not a hang.
        """
        now = self.scheduler.now
        session = run.session
        if not self.edge_online[session.edge_index]:
            self.stats.chunks_dropped += 1
            self.trace.record(now, "chunk-dropped",
                              f"camera={session.camera} stage={run.stage}")
            self.service.ingest.on_chunk_failed(session)
            return
        self.stats.chunks_failed_over += 1
        self.trace.record(
            now, "chunk-requeued",
            f"camera={session.camera} stage={run.stage} "
            f"edge={session.edge_index} reason={reason}")
        self.chain.reenter(run)

    # ------------------------------------------------------------------ #
    # Injected events
    # ------------------------------------------------------------------ #
    def _breaker_opened(self, index: int) -> None:
        self.stats.breaker_opens += 1
        self.trace.record(self.scheduler.now, "breaker-open",
                          f"edge={index}")

    def _relocate(self, dead: int) -> None:
        """Fail every live session on a permanently dead edge over."""
        now = self.scheduler.now
        for session in self.service.ingest.sessions.values():
            if session.edge_index != dead or _closed(session):
                continue
            target = self._pick_healthy()
            if target is None:  # pragma: no cover - validate_for forbids it
                self.trace.record(now, "session-lost",
                                  f"camera={session.camera}")
                self.service.ingest.close_session(session.session_id,
                                                  reason="edge-lost")
                continue
            session.edge_index = target
            self.stats.sessions_relocated += 1
            self.trace.record(now, "session-failover",
                              f"camera={session.camera} "
                              f"edge={dead}->{target}")

    def _stall(self, spec: StreamStall) -> None:
        now = self.scheduler.now
        lan = self.chain.lan_links.get(spec.camera)
        if lan is None:
            self.trace.record(now, "stream-stall-skipped",
                              f"camera={spec.camera} no-session")
            return
        self.stats.stream_stalls += 1
        self.trace.record(now, "stream-stall",
                          f"camera={spec.camera} "
                          f"duration={spec.duration_seconds:.6f}")
        self._hold(lan, spec)
        self.scheduler.schedule(spec.duration_seconds,
                                self._unstall, spec, lan)

    def _unstall(self, spec: StreamStall, lan) -> None:
        self.trace.record(self.scheduler.now, "stream-resume",
                          f"camera={spec.camera}")
        self._release(lan, spec)

    # ------------------------------------------------------------------ #
    # Stall watchdog
    # ------------------------------------------------------------------ #
    def _watchdog_tick(self) -> None:
        """Close sessions that stopped making progress; rearm while any
        session is still live (so the watchdog dies with its sessions
        and a ``drain()`` can terminate)."""
        now = self.scheduler.now
        timeout = self.resilience.stall_timeout_seconds
        live = False
        for session in list(self.service.ingest.sessions.values()):
            if _closed(session):
                continue
            live = True
            if session.session_id in self._stalled:
                continue
            idle = now - session.last_progress()
            if idle > timeout:
                self._stalled.add(session.session_id)
                self.stats.sessions_stalled += 1
                self.trace.record(now, "session-stalled",
                                  f"camera={session.camera} "
                                  f"idle={idle:.6f}")
                self.service.ingest.close_session(session.session_id,
                                                  reason="stalled")
        if live:
            self.scheduler.schedule(self.resilience.watchdog_period_seconds,
                                    self._watchdog_tick)

