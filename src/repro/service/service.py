"""The long-running streaming service over the discrete-event engine.

:class:`StreamingService` is the live driver of the
:class:`~repro.cluster.topology.StageChain` the batch
:class:`~repro.cluster.fleet.FleetOrchestrator` drives in one shot —
per-edge compute stations and WAN uplinks funnelling into one cloud tier,
with every pushed chunk one unit of work on the chain:

* cameras connect through :class:`~repro.service.ingest.StreamIngest`
  sessions and push :class:`~repro.service.session.FrameChunk` work
  incrementally instead of arriving as one pre-planned batch;
* a :class:`~repro.service.clock.ClockDriver` decides how the event loop
  advances — :class:`VirtualClock` drains as fast as possible (bit-identical
  to the batch simulators), :class:`RealTimeClock` paces against the wall;
* two drivers compute a run, with the same result bit for bit: the event
  loop, and the fleet's recurrence (:mod:`repro.cluster.recurrence`),
  which :meth:`StreamingService.run` takes when a virtual-clock run of an
  idle chain has only :class:`~repro.service.feeder.ChunkFeeder` pushes
  pending and no push would be refused (see ``_run_batch`` for the
  rest);
* :meth:`status` serves live health snapshots whose utilisations are exact
  (and bounded by 1.0) even mid-service, via the pro-rated busy accounting
  on :class:`~repro.dataflow.scheduler.ServiceStation`;
* :meth:`fleet_report` folds the finished streams into an ordinary
  :class:`~repro.cluster.fleet.FleetReport`, so the existing
  ``parity_mismatches`` contract can compare a real-time run against a
  virtual-clock run of the same workload.

Determinism and parity: everything that can change simulation state —
frame pushes, session opens/closes, tenant registration, retuning — either
happens between ``run`` calls or is scheduled as a control event via
:meth:`at` / :meth:`after`.  Control events live on the same heap as
service completions with the same tie-breaking, so the event sequence (and
therefore every report field) is identical under any clock driver.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import repeat
from math import inf
from operator import add
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..adapt.controller import AdaptiveConfig, AdaptiveTuningController
from ..cluster.fleet import (CameraJob, FleetOutcomes, FleetReport,
                             PlacementPolicy, chain_report)
from ..cluster.topology import StageChain, StageUnit
from ..codec.gop import EncoderParameters
from ..config import (FINITE, NON_NEGATIVE, SystemConfig, real_number,
                      whole_number)
from ..dataflow.scheduler import EventScheduler, ServiceStation
from ..errors import ServiceError
from ..faults.injector import ResilienceConfig, ServiceFaultDriver
from ..faults.plan import FaultPlan
from ..faults.stats import FaultStats
from ..net.contention import ContendedLink
from ..perf import Stopwatch, section
from .batch import FeederBatch
from .clock import ClockDriver, RealTimeClock, VirtualClock
from .feeder import ChunkFeeder
from .ingest import StreamIngest
from .session import FrameChunk, SessionState, StreamSession, TenantPolicy
from .status import (HealthSample, ServiceStatus, StationSnapshot,
                     snapshot_sessions, snapshot_station)

#: Samples the status health history keeps: the newest ones.
HEALTH_HISTORY_SAMPLES = 64


class _ChunkRun(StageUnit):
    """One in-flight chunk moving through the service's stage chain.

    Placement lives on the session: the chain re-reads
    ``session.edge_index`` at every stage entry, so a chunk requeued (or
    simply still upstream) after a session failover lands on the
    session's new edge.  The LAN key never changes over a session's life:
    it is the session id.
    """

    __slots__ = ("session", "arrival", "lan_key")

    def __init__(self, session: StreamSession, chunk: FrameChunk,
                 arrival: float) -> None:
        super().__init__(chunk)
        self.session = session
        self.arrival = arrival
        self.lan_key = session.session_id

    @property
    def edge_index(self) -> int:
        return self.session.edge_index


class StreamingService:
    """A live multi-tenant camera-analytics service on one virtual clock.

    Args:
        config: Service-wide bandwidths/latencies (defaults to the paper's).
        num_edge_servers: Edge servers (each with compute + WAN uplink).
        edge_workers: Parallel compute slots per edge server.
        cloud_workers: Cloud tier slots (default: ``num_edge_servers``).
        clock: Clock driver (default: :class:`VirtualClock`).
        max_sessions: Service-wide concurrent session cap.
        tenants: Initial tenant policies (a ``"default"`` tenant is always
            available).
        faults: Optional :class:`~repro.faults.FaultPlan` to inject.  With
            neither ``faults`` nor ``resilience`` set, no fault driver is
            installed and the pipeline is bit-identical to the seed.
        resilience: Self-healing knobs (:class:`ResilienceConfig`:
            breaker thresholds, stall watchdog).  Setting it installs the
            fault driver even without a plan.
        adaptive: Optional :class:`~repro.adapt.AdaptiveConfig`.  Setting
            it installs the online :class:`AdaptiveTuningController` —
            accepted pushes carrying a scene payload feed per-session
            drift detectors, and confirmed drifts re-tune the session's
            encoder parameters through :meth:`retune_session`.  Without
            it (the default) no controller exists and the serving path
            is bit-identical to the seed.
    """

    def __init__(self, config: Optional[SystemConfig] = None,
                 num_edge_servers: int = 1, edge_workers: int = 1,
                 cloud_workers: Optional[int] = None,
                 clock: Optional[ClockDriver] = None,
                 max_sessions: int = 64,
                 tenants: Sequence[TenantPolicy] = (),
                 faults: Optional[FaultPlan] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 adaptive: Optional[AdaptiveConfig] = None) -> None:
        self.config = config or SystemConfig()
        self.num_edge_servers = whole_number(
            num_edge_servers, "num_edge_servers", ServiceError, 1)
        self.edge_workers = whole_number(edge_workers, "edge_workers",
                                         ServiceError, 1)
        self.cloud_workers = (whole_number(cloud_workers, "cloud_workers",
                                           ServiceError, 1)
                              if cloud_workers is not None
                              else self.num_edge_servers)
        max_sessions = whole_number(max_sessions, "max_sessions",
                                    ServiceError, 1)
        self.clock = clock if clock is not None else VirtualClock()
        self.scheduler = EventScheduler()
        #: The stage chain every chunk flows through.  The four resource
        #: attributes below are references to the chain's own containers.
        self.chain = StageChain(
            self.scheduler, self.config, range(self.num_edge_servers),
            self.edge_workers, self.cloud_workers, lan_per_edge=False,
            on_finish=self._finish_chunk)
        self.edge_stations: List[ServiceStation] = self.chain.edge_stations
        self.wan_links: List[ContendedLink] = self.chain.wan_links
        self.cloud_station: ServiceStation = self.chain.cloud_station
        #: One camera uplink per session, keyed by session id (built on
        #: admission).
        self.lan_links: Dict[str, ContendedLink] = self.chain.lan_links
        # The fault driver is built first so the ingest's gates can be its
        # own methods: a service without one leaves them unset, and a push
        # then pays nothing for them.
        driver: Optional[ServiceFaultDriver] = None
        if faults is not None or resilience is not None:
            driver = ServiceFaultDriver(
                self, faults if faults is not None else FaultPlan(),
                resilience if resilience is not None else ResilienceConfig())
            self.chain.on_fail = driver.on_chunk_failed
        self._fault_driver = driver
        self.ingest = StreamIngest(
            self.scheduler, self.num_edge_servers,
            attach_session=self._attach_session,
            submit_chunk=self._submit_chunk,
            max_sessions=max_sessions,
            tenants=tenants,
            push_gate=driver.push_refusal if driver else None,
            edge_available=(driver.edge_online.__getitem__ if driver
                            else None))
        #: Wall-clock seconds spent inside ``run`` so far.
        self.wall_run_seconds = 0.0
        #: Feeders that registered themselves (for retry accounting).
        self.feeders: List[object] = []
        self.adaptive: Optional[AdaptiveTuningController] = None
        if adaptive is not None:
            self.adaptive = AdaptiveTuningController(self, adaptive)
            self.ingest.on_chunk_scene = self.adaptive.observe_push
        self._health_history: Deque[HealthSample] = deque(
            maxlen=HEALTH_HISTORY_SAMPLES)

    # ------------------------------------------------------------------ #
    # Session API (delegated to the ingest front end)
    # ------------------------------------------------------------------ #
    def open_session(self, camera: str, tenant: str = "default",
                     edge_index: Optional[int] = None) -> StreamSession:
        """Admit a camera stream (see :meth:`StreamIngest.open_session`)."""
        return self.ingest.open_session(camera, tenant=tenant,
                                        edge_index=edge_index)

    def push_frames(self, session_id: str, chunk: FrameChunk) -> None:
        """Push a frame chunk (see :meth:`StreamIngest.push_frames`)."""
        self.ingest.push_frames(session_id, chunk)

    def close_session(self, session_id: str,
                      reason: str = "client") -> StreamSession:
        """Begin draining a session (see :meth:`StreamIngest.close_session`)."""
        return self.ingest.close_session(session_id, reason=reason)

    def retune_session(self, session_id: str, *,
                       max_pending_chunks: Optional[int] = None,
                       parameters: Optional[EncoderParameters] = None
                       ) -> StreamSession:
        """Retune a live session's backpressure bound and/or encoder
        parameters without dropping it (see
        :meth:`StreamIngest.retune_session`)."""
        return self.ingest.retune_session(
            session_id, max_pending_chunks=max_pending_chunks,
            parameters=parameters)

    def register_tenant(self, policy: TenantPolicy) -> None:
        """Add or replace a tenant policy; existing sessions are untouched."""
        self.ingest.register_tenant(policy)

    # ------------------------------------------------------------------ #
    # Control events and the event loop
    # ------------------------------------------------------------------ #
    def at(self, time: float, action: Callable[..., None],
           *args: Any) -> None:
        """Schedule the control action ``action(*args)`` at absolute
        virtual ``time``.

        Feeders and reconfiguration scripts must use this (or
        :meth:`after`) so their effects are ordered on the event heap —
        that ordering is what makes a run reproducible under any clock.
        """
        real_number(time, "control time", ServiceError, **FINITE)
        self.scheduler.schedule_at(time, action, *args)

    def after(self, delay: float, action: Callable[..., None],
              *args: Any) -> None:
        """Schedule ``action(*args)`` ``delay`` virtual seconds from now."""
        self.scheduler.schedule(delay, action, *args)

    def run(self, until: Optional[float] = None) -> int:
        """Advance the service under its clock driver.

        Returns the number of events fired.  With ``until`` the clock stops
        at that virtual horizon (inclusive); without it the heap drains.
        """
        watch = Stopwatch().start()
        try:
            fired = self._run_batch(until)
            if fired is None:
                fired = self.clock.run(self.scheduler, until=until)
            return fired
        finally:
            self.wall_run_seconds += watch.stop()

    def run_for(self, seconds: float) -> int:
        """Advance the service ``seconds`` of virtual time from now."""
        real_number(seconds, "seconds", ServiceError, **NON_NEGATIVE)
        return self.run(until=self.scheduler.now + seconds)

    def drain(self) -> int:
        """Run until no events remain (all pushed work completes)."""
        return self.run(until=None)

    # ------------------------------------------------------------------ #
    # The batch path: a feeder-fed run through the chain's recurrence
    # ------------------------------------------------------------------ #
    def _run_batch(self, until: Optional[float]) -> Optional[int]:
        """Compute the run with :func:`replay_fleet` instead of the event
        loop, or return ``None`` to leave it to the loop.

        The batch is the loop's arithmetic on the same values, so it
        leaves the same state behind, bit for bit.  It runs when the clock
        is a :class:`VirtualClock`, the chain is idle, the run goes to
        completion and every pending event is the next push of a
        registered :class:`ChunkFeeder`; and it commits only when every
        push it computed would have been admitted.  The service's own
        adaptive controller rides along: no chunk's cost reads what it
        changes, so the commit replays its scene pushes in the loop's
        firing order.  Everything else — a real-time clock, a horizon that
        cuts work, a fault driver, a foreign scene hook, a chain hook, any
        other control event, a feeder retrying a push, a push a bound
        would refuse — is the loop's, from untouched state.
        """
        feeds = self._batch_feeds(until)
        if feeds is None:
            return None
        batch = FeederBatch(self, feeds)
        if not batch.admitted(until):
            return None
        return batch.commit(until)

    def _batch_feeds(self, until: Optional[float]
                     ) -> Optional[List[Tuple[ChunkFeeder, StreamSession,
                                              float]]]:
        """``(feeder, session, next push instant)`` of every pending event,
        in the order they were scheduled, when the run can be a batch (a
        horizon before some feeder's last push cuts it for sure)."""
        chain = self.chain
        own_scene_hook = (self.adaptive.observe_push
                          if self.adaptive is not None else None)
        if ((until is not None and not -inf < until < inf)
                or type(self.clock) is not VirtualClock
                or self._fault_driver is not None
                or self.ingest.on_chunk_scene != own_scene_hook
                or chain.on_fail is not None
                or chain.on_finish != self._finish_chunk):
            return None
        for resource in (*chain.edge_stations, chain.cloud_station,
                         *chain.wan_links, *chain.lan_links.values()):
            if (resource.in_service or resource.queue_depth
                    or not resource.online):
                return None
        feeds = []
        fed = set()
        for time, action, args in self.scheduler._pending():
            feeder = getattr(action, "__self__", None)
            if (type(feeder) is not ChunkFeeder or args
                    or action.__func__ is not ChunkFeeder._push
                    or feeder._service is not self or feeder._attempts
                    or feeder.done or feeder.session_id in fed):
                return None
            session = self.ingest.sessions.get(feeder.session_id)
            if (session is None or not session.is_open or session.in_flight
                    or until is not None and reduce(add, repeat(
                        feeder.period_seconds,
                        len(feeder.chunks) - feeder.next_index - 1),
                        time) > until):
                return None
            fed.add(feeder.session_id)
            feeds.append((feeder, session, time))
        return feeds or None

    # ------------------------------------------------------------------ #
    # Health / metrics
    # ------------------------------------------------------------------ #
    def status(self) -> ServiceStatus:
        """Snapshot the service's live health and metrics."""
        with section("service.status"):
            horizon = self.scheduler.now
            stations: List[StationSnapshot] = []
            for index, station in enumerate(self.edge_stations):
                stations.append(snapshot_station(station.name, station,
                                                 horizon))
                stations.append(snapshot_station(
                    f"wan:{index}", self.wan_links[index], horizon))
            stations.append(snapshot_station("cloud", self.cloud_station,
                                             horizon))
            opened = list(self.ingest.sessions.values())
            lans = [self.lan_links.get(session.session_id)
                    for session in opened]
            sessions = snapshot_sessions(
                opened, [lan.queue_depth if lan is not None else 0
                         for lan in lans])
            if isinstance(self.clock, RealTimeClock):
                speedup = self.clock.speedup
                max_lag = self.clock.max_lag_seconds
            else:
                speedup = float("inf")
                max_lag = 0.0
            return ServiceStatus(
                virtual_now=horizon,
                wall_run_seconds=self.wall_run_seconds,
                clock=self.clock.describe(),
                speedup=speedup,
                clock_max_lag_seconds=max_lag,
                events_processed=self.scheduler.events_processed,
                pending_events=self.scheduler.pending_events,
                active_sessions=self.ingest.active_sessions,
                total_sessions=len(self.ingest.sessions),
                sessions_rejected=self.ingest.sessions_rejected,
                pushes_rejected=self.ingest.pushes_rejected,
                tenants={name: self.ingest.active_sessions_of(name)
                         for name in self.ingest.tenants},
                stations=tuple(stations),
                sessions=sessions,
                close_reasons=dict(self.ingest.close_reasons),
                breaker_states=(
                    {index: breaker.state.value for index, breaker
                     in self._fault_driver.breakers.items()}
                    if self._fault_driver is not None else {}),
                fault_counters=(fault_counters := (
                    stats.as_dict()
                    if (stats := self.fault_stats()) is not None else {})),
                retune_counters=(retune_counters := (
                    self.adaptive.counters()
                    if self.adaptive is not None else {})),
                retune_history=tuple(
                    self.adaptive.history_lines()
                    if self.adaptive is not None else ()),
                health_history=self._sample_health(
                    horizon, {**fault_counters, **retune_counters}),
            )

    def _sample_health(self, virtual_now: float,
                       counters: Dict[str, int]) -> tuple:
        """Fold one status capture into the bounded health-history ring.

        Only non-empty counter sets produce samples, so a clean run's
        snapshots carry an empty history — exactly the seed's shape.
        """
        if counters:
            self._health_history.append(HealthSample(
                virtual_now=virtual_now, counters=dict(counters)))
        return tuple(self._health_history)

    def fleet_report(self) -> FleetReport:
        """Fold the service's streams into a batch-comparable report.

        Each session becomes one synthetic :class:`CameraJob` from its push
        accumulators and one row of the outcome record, which spans first
        push to last completion (a session's chunks end the middle stages
        many times, so those instants stay ``nan``).  The
        report satisfies the same :meth:`FleetReport.parity_mismatches`
        contract as the batch orchestrator's, which is how the example and
        the tests assert virtual-vs-real-time parity.
        """
        jobs: List[CameraJob] = []
        edges: List[int] = []
        starts: List[float] = []
        ends: List[float] = []
        for session in self.ingest.sessions.values():
            job = CameraJob(
                camera=session.camera,
                video=f"stream:{session.camera}",
                num_frames=session.frames_pushed,
                frames_for_inference=session.frames_for_inference,
                edge_seconds=session.edge_seconds_pushed,
                cloud_seconds=session.cloud_seconds_pushed,
                camera_edge_bytes=session.camera_edge_bytes_pushed,
                edge_cloud_bytes=session.edge_cloud_bytes_pushed,
            )
            jobs.append(job)
            edges.append(session.edge_index)
            starts.append(session.first_arrival
                          if session.chunks_pushed > 0 else session.opened_at)
            ends.append(session.last_completion
                        if session.chunks_completed == session.chunks_pushed
                        and session.chunks_pushed > 0 else float("nan"))
        outcomes = FleetOutcomes.starting(jobs, edges, starts)
        outcomes.cloud_end[:] = ends
        return chain_report(self.chain, PlacementPolicy.ROUND_ROBIN, outcomes,
                            self.wall_run_seconds, faults=self.fault_stats())

    # ------------------------------------------------------------------ #
    # Pipeline internals
    # ------------------------------------------------------------------ #
    def _attach_session(self, session: StreamSession) -> None:
        """Build the session's camera uplink."""
        self.chain.add_lan_link(session.session_id,
                                f"camera:{session.camera}")

    def _submit_chunk(self, session: StreamSession, chunk: FrameChunk) -> None:
        """Start one accepted chunk down the stage chain."""
        self.chain.enter_lan(_ChunkRun(session, chunk, self.scheduler.now))

    def _finish_chunk(self, run: _ChunkRun) -> None:
        self.ingest.on_chunk_complete(run.session,
                                      self.scheduler.now - run.arrival)
        if self._fault_driver is not None:
            self._fault_driver.on_chunk_complete(run)

    # ------------------------------------------------------------------ #
    # Fault plumbing
    # ------------------------------------------------------------------ #
    def _register_feeder(self, feeder: object) -> None:
        """Track a feeder so reports can fold in its retry accounting."""
        self.feeders.append(feeder)

    def fault_stats(self) -> Optional[FaultStats]:
        """Fault/recovery counters, or ``None`` when nothing happened.

        Combines the fault driver's counters (crashes, failovers,
        breakers) with feeder retry accounting.  Returns ``None`` on a
        clean run so fault-free reports stay bit-identical to the seed.
        """
        driver = self._fault_driver
        stats = driver.stats if driver is not None else FaultStats()
        stats.feeder_retries = sum(
            getattr(feeder, "retries", 0) for feeder in self.feeders)
        stats.feeder_give_ups = sum(
            1 for feeder in self.feeders if getattr(feeder, "gave_up", False))
        stats.retry_histogram = {}
        for feeder in self.feeders:
            for attempts, count in getattr(feeder, "attempt_histogram",
                                           {}).items():
                stats.observe_attempts(attempts, count)
        return stats if stats.has_activity() else None

    @property
    def recovery_trace(self):
        """The fault driver's :class:`RecoveryTrace` (``None`` without one)."""
        return (self._fault_driver.trace
                if self._fault_driver is not None else None)


# Re-exported for convenience so callers can build sessions without touching
# the submodules (`from repro.service.service import ...` mirrors cluster).
__all__ = [
    "StreamingService", "SessionState", "TenantPolicy", "FrameChunk",
]
