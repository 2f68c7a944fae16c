"""Self-healing behaviour of the streaming service under injected faults.

Exercises each recovery mechanism in isolation with hand-written fault
plans whose timing is chosen so the interesting state (chunks mid-stage,
sessions mid-stream) definitely exists when the fault fires:

* bounded feeder retries — a never-clearing backpressure wedge ends in a
  counted, reasoned give-up instead of a livelocked event loop;
* transient edge crashes — in-flight chunks are requeued and complete
  after the restart, with the edge's circuit breaker shedding pushes
  while the edge is down;
* permanent edge crashes — live sessions fail over to a healthy edge and
  every pushed chunk still completes;
* the stall watchdog — a stalled stream is closed with reason
  ``"stalled"`` instead of wedging the drain;
* graceful degradation — quota-overflow admissions shed to the degraded
  tenant tier instead of bouncing;
* the standing bit-identity contract — a service with no plan (or an
  empty plan, hooks installed but idle) matches the hookless service
  exactly.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import AdmissionError
from repro.faults import (EdgeCrash, FaultPlan, ResilienceConfig, RetryPolicy,
                          StreamStall, WanDegradation)
from repro.service import (ChunkFeeder, FrameChunk, SessionState,
                           StreamingService, TenantPolicy, VirtualClock)

TOLERANCE = 1e-6


def make_chunks(count: int, edge_seconds: float = 0.4,
                cloud_seconds: float = 0.15) -> list:
    return [FrameChunk(num_frames=30, frames_for_inference=3,
                       edge_seconds=edge_seconds, cloud_seconds=cloud_seconds,
                       camera_edge_bytes=600_000, edge_cloud_bytes=80_000)
            for _ in range(count)]


def assert_no_lost_chunks(service: StreamingService) -> None:
    """Every accepted chunk is accounted for: completed or failed out."""
    for session in service.ingest.sessions.values():
        assert session.in_flight == 0
        assert (session.chunks_pushed
                == session.chunks_completed + session.chunks_failed)


class TestBoundedFeederRetries:
    def test_never_clearing_backpressure_ends_in_give_up(self):
        """Regression: the feeder must not livelock against a permanent
        wedge.  Before the retry budget, this drain never returned — every
        bounced push rescheduled another one forever."""
        service = StreamingService(
            num_edge_servers=1,
            tenants=(TenantPolicy(name="tight", max_pending_chunks=1),))
        service.open_session("cam-wedge", tenant="tight")
        # Wedge the pipeline for good: the edge never serves, so the first
        # chunk never completes and in_flight stays pinned at the bound.
        service.edge_stations[0].pause()
        feeder = ChunkFeeder(
            service, "cam-wedge", make_chunks(4), period_seconds=0.5,
            retry_policy=RetryPolicy.constant(0.05, max_attempts=5)).start()
        service.drain()  # terminates: the budget caps the retry loop
        assert feeder.gave_up
        assert not feeder.done
        assert feeder.retries == 5
        assert feeder.attempt_histogram == {5: 1}
        session = service.ingest.sessions["cam-wedge"]
        assert session.close_reason == "backpressure"
        assert session.state is SessionState.DRAINING  # chunk still wedged
        stats = service.fault_stats()
        assert stats is not None
        assert stats.feeder_give_ups == 1
        assert stats.feeder_retries == 5
        assert service.status().close_reasons == {"backpressure": 1}

    def test_exponential_backoff_changes_only_timing(self):
        """A clearing wedge: backoff retries eventually get through."""
        service = StreamingService(
            num_edge_servers=1,
            tenants=(TenantPolicy(name="tight", max_pending_chunks=1),))
        service.open_session("cam", tenant="tight")
        feeder = ChunkFeeder(
            service, "cam", make_chunks(6, edge_seconds=0.6),
            period_seconds=0.2,
            retry_policy=RetryPolicy(max_attempts=32,
                                     base_delay_seconds=0.05,
                                     multiplier=2.0,
                                     max_delay_seconds=0.8)).start()
        service.drain()
        assert feeder.done
        assert not feeder.gave_up
        assert feeder.retries > 0
        assert_no_lost_chunks(service)


class TestTransientCrashRecovery:
    def test_in_flight_chunks_requeue_and_complete(self):
        plan = FaultPlan(specs=(
            EdgeCrash(edge_index=0, at_seconds=0.9,
                      restart_after_seconds=0.6),))
        service = StreamingService(
            num_edge_servers=1, faults=plan,
            resilience=ResilienceConfig(breaker_cooldown_seconds=0.5))
        service.open_session("cam-a")
        service.open_session("cam-b")
        feeders = [
            ChunkFeeder(service, "cam-a", make_chunks(5),
                        period_seconds=0.5).start(),
            ChunkFeeder(service, "cam-b", make_chunks(5),
                        period_seconds=0.5).start(at=0.25),
        ]
        service.drain()
        stats = service.fault_stats()
        assert stats is not None
        assert stats.crashes_seen == 1
        assert stats.edges_restarted == 1
        # The crash caught work mid-stage and it was requeued, not lost.
        assert stats.chunks_failed_over > 0
        assert stats.chunks_dropped == 0
        # The breaker tripped on the crash and shed pushes while open.
        assert stats.breaker_opens >= 1
        assert stats.breaker_rejections > 0
        assert all(feeder.done for feeder in feeders)
        assert_no_lost_chunks(service)
        for session in service.ingest.sessions.values():
            assert session.state is SessionState.CLOSED
            assert session.chunks_completed == 5
        kinds = service.recovery_trace.kinds()
        assert kinds.get("edge-crash") == 1
        assert kinds.get("edge-restart") == 1
        assert kinds.get("chunk-requeued", 0) > 0

    def test_same_plan_same_trace(self):
        def run():
            plan = FaultPlan(specs=(
                EdgeCrash(edge_index=0, at_seconds=0.9,
                          restart_after_seconds=0.6),))
            service = StreamingService(
                num_edge_servers=1, faults=plan,
                resilience=ResilienceConfig(breaker_cooldown_seconds=0.5))
            service.open_session("cam-a")
            ChunkFeeder(service, "cam-a", make_chunks(5),
                        period_seconds=0.5).start()
            service.drain()
            return service

        first, second = run(), run()
        assert first.recovery_trace.mismatches(second.recovery_trace) == []
        assert first.fleet_report().parity_mismatches(
            second.fleet_report(), TOLERANCE) == []


class TestOverlappingFaults:
    def test_restart_does_not_lift_a_wan_partition(self):
        """Regression: a transient crash's restart used to resume the
        uplink unconditionally — lifting a partition that still had eight
        seconds to run, while the trace claimed ``wan-restore`` at t=11."""
        plan = FaultPlan((
            WanDegradation(edge_index=0, at_seconds=1.0,
                           duration_seconds=10.0),
            EdgeCrash(edge_index=0, at_seconds=2.0,
                      restart_after_seconds=1.0)))
        service = StreamingService(
            num_edge_servers=2, faults=plan,
            resilience=ResilienceConfig(breaker_cooldown_seconds=0.5))
        service.open_session("cam", edge_index=0)
        (chunk,) = make_chunks(1, edge_seconds=0.1, cloud_seconds=0.05)
        service.at(4.0, lambda: service.push_frames("cam", chunk))
        service.run(until=3.5)
        assert service.edge_stations[0].online  # the restart did happen
        assert not service.wan_links[0].online  # the partition still holds
        service.run(until=10.5)
        assert service.ingest.sessions["cam"].chunks_completed == 0
        service.drain()
        session = service.ingest.sessions["cam"]
        assert session.chunks_completed == 1
        assert session.last_completion > 11.0
        assert [line.split(" ", 1)[1] for line
                in service.recovery_trace.lines()] == [
            "wan-partition edge=0 duration=10.000000",
            "edge-crash edge=0 restart=1.000000",
            "breaker-open edge=0",
            "edge-restart edge=0",
            "wan-restore edge=0"]

    def test_partition_ending_inside_an_outage_waits_for_the_restart(self):
        """The harmless order: the outage owns the uplink until it ends."""
        plan = FaultPlan((
            EdgeCrash(edge_index=0, at_seconds=1.0,
                      restart_after_seconds=3.0),
            WanDegradation(edge_index=0, at_seconds=2.0,
                           duration_seconds=1.0)))
        service = StreamingService(num_edge_servers=2, faults=plan)
        service.run(until=3.5)
        assert not service.wan_links[0].online
        service.drain()
        assert service.wan_links[0].online
        assert service.recovery_trace.kinds() == {
            "edge-crash": 1, "breaker-open": 1, "wan-partition": 1,
            "wan-restore-skipped": 1, "edge-restart": 1}


class TestPermanentCrashFailover:
    def test_sessions_relocate_to_a_healthy_edge(self):
        plan = FaultPlan(specs=(EdgeCrash(edge_index=0, at_seconds=1.1),))
        service = StreamingService(num_edge_servers=2, faults=plan)
        service.open_session("cam-a")   # round-robin -> edge 0
        service.open_session("cam-b")   # -> edge 1
        feeders = [
            ChunkFeeder(service, camera, make_chunks(6),
                        period_seconds=0.5).start(at=0.1 * index)
            for index, camera in enumerate(("cam-a", "cam-b"))
        ]
        assert service.ingest.sessions["cam-a"].edge_index == 0
        service.drain()
        stats = service.fault_stats()
        assert stats is not None
        assert stats.crashes_seen == 1
        assert stats.edges_restarted == 0
        assert stats.sessions_relocated == 1
        assert stats.chunks_dropped == 0
        # The failed-over session finished on the surviving edge.
        relocated = service.ingest.sessions["cam-a"]
        assert relocated.edge_index == 1
        assert all(feeder.done for feeder in feeders)
        assert_no_lost_chunks(service)
        for session in service.ingest.sessions.values():
            assert session.chunks_completed == 6
        assert service.recovery_trace.kinds().get("session-failover") == 1
        # New placements skip the dead edge.
        late = service.open_session("cam-late")
        assert late.edge_index == 1

    def test_pinned_placement_on_dead_edge_is_refused(self):
        plan = FaultPlan(specs=(EdgeCrash(edge_index=0, at_seconds=0.1),))
        service = StreamingService(num_edge_servers=2, faults=plan)
        service.run_for(0.2)
        with pytest.raises(AdmissionError):
            service.open_session("cam-pinned", edge_index=0)


class TestStallWatchdog:
    def test_stalled_session_is_closed_with_reason(self):
        plan = FaultPlan(specs=(
            StreamStall(camera="cam-stall", at_seconds=0.6,
                        duration_seconds=4.0),))
        service = StreamingService(
            num_edge_servers=1, faults=plan,
            resilience=ResilienceConfig(stall_timeout_seconds=1.0,
                                        watchdog_period_seconds=0.25),
            tenants=(TenantPolicy(name="narrow", max_pending_chunks=2),))
        # The narrow in-flight bound makes the stall *observable*: once two
        # chunks are wedged behind the paused uplink, further pushes bounce
        # and the session stops making progress — which is what the
        # watchdog's idle clock measures.
        service.open_session("cam-stall", tenant="narrow")
        service.open_session("cam-fine")
        stalled_feeder = ChunkFeeder(service, "cam-stall", make_chunks(8),
                                     period_seconds=0.4).start()
        fine_feeder = ChunkFeeder(service, "cam-fine", make_chunks(4),
                                  period_seconds=0.4).start(at=0.05)
        service.drain()
        stats = service.fault_stats()
        assert stats is not None
        assert stats.stream_stalls == 1
        assert stats.sessions_stalled == 1
        session = service.ingest.sessions["cam-stall"]
        assert session.close_reason == "stalled"
        assert session.state is SessionState.CLOSED
        # The feeder noticed the close instead of erroring the event loop.
        assert stalled_feeder.halted
        assert not stalled_feeder.done
        assert fine_feeder.done
        assert_no_lost_chunks(service)
        assert service.status().close_reasons["stalled"] == 1

    def test_watchdog_disabled_by_default(self):
        service = StreamingService(num_edge_servers=1, faults=FaultPlan())
        assert service._fault_driver is not None
        service.open_session("cam")
        ChunkFeeder(service, "cam", make_chunks(2),
                    period_seconds=0.5).start()
        service.drain()  # terminates without a watchdog rearm loop
        assert service.fault_stats() is None


class TestGracefulDegradation:
    def test_quota_overflow_sheds_to_degraded_tier(self):
        service = StreamingService(
            num_edge_servers=1,
            tenants=(TenantPolicy(name="gold", max_sessions=1),),
            degraded_tenant=TenantPolicy(name="degraded", max_sessions=8,
                                         max_pending_chunks=2))
        first = service.open_session("cam-1", tenant="gold")
        shed = service.open_session("cam-2", tenant="gold")
        assert first.tenant == "gold"
        assert shed.tenant == "degraded"
        assert shed.max_pending_chunks == 2
        assert service.ingest.sessions_degraded == 1
        status = service.status()
        assert status.sessions_degraded == 1
        assert status.sessions_rejected == 0
        stats = service.fault_stats()
        assert stats is not None and stats.sessions_degraded == 1

    def test_hard_refusals_still_raise(self):
        service = StreamingService(
            num_edge_servers=1, max_sessions=1,
            degraded_tenant=TenantPolicy(name="degraded"))
        service.open_session("cam-1")
        with pytest.raises(AdmissionError):
            # Service-wide cap is not sheddable: the degraded tier cannot
            # conjure capacity the whole service lacks.
            service.open_session("cam-2")


class TestFaultFreeBitIdentity:
    def _run(self, **kwargs) -> StreamingService:
        service = StreamingService(num_edge_servers=2, clock=VirtualClock(),
                                   **kwargs)
        for index in range(4):
            camera = f"cam-{index}"
            service.open_session(camera)
            ChunkFeeder(service, camera, make_chunks(3),
                        period_seconds=0.5).start(at=0.1 * index)
        service.drain()
        return service

    def test_empty_plan_matches_hookless_service_exactly(self):
        plain = self._run()
        hooked = self._run(faults=FaultPlan())
        assert plain.fleet_report().parity_mismatches(
            hooked.fleet_report(), TOLERANCE) == []
        assert plain.fleet_report().faults is None
        assert hooked.fleet_report().faults is None
        assert hooked.fault_stats() is None
        assert len(hooked.recovery_trace) == 0
        # Same event count: the idle hooks schedule nothing.
        assert (plain.scheduler.events_processed
                == hooked.scheduler.events_processed)

    def test_fault_free_status_matches_seed_shape(self):
        plain = self._run()
        status = plain.status()
        assert status.fault_counters == {}
        assert status.breaker_states == {}
        assert status.sessions_degraded == 0
        report = plain.fleet_report()
        assert report.faults is None
        assert all(not math.isnan(outcome.end_seconds)
                   for outcome in report.outcomes)
