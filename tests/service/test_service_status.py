"""Live ServiceStatus snapshots: bounded utilisation, honest counters."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import AdmissionError, ServiceError
from repro.faults import EdgeCrash, FaultPlan
from repro.service import (FrameChunk, RealTimeClock, StreamingService,
                           TenantPolicy)
from repro.service.service import HEALTH_HISTORY_SAMPLES
from repro.service.status import (HealthSample, ServiceStatus,
                                  SessionSnapshot, StationSnapshot)

CHUNK = FrameChunk(num_frames=30, frames_for_inference=3,
                   edge_seconds=0.5, cloud_seconds=0.1,
                   camera_edge_bytes=2_000_000, edge_cloud_bytes=200_000)


def test_empty_service_snapshot_is_well_formed():
    service = StreamingService(num_edge_servers=2)
    status = service.status()
    assert status.virtual_now == 0.0
    assert status.active_sessions == status.total_sessions == 0
    assert status.pending_events == 0
    assert status.max_utilisation == 0.0
    assert status.total_in_flight == 0
    # 2 edges + 2 WAN uplinks + cloud.
    assert [station.name for station in status.stations] == [
        "edge:0", "wan:0", "edge:1", "wan:1", "cloud"]
    assert status.tenants == {"default": 0}
    assert status.clock == "virtual"
    assert status.speedup == float("inf")


def test_utilisation_bounded_at_every_horizon_cut():
    service = StreamingService(num_edge_servers=1)
    service.open_session("a")
    service.open_session("b")
    for _ in range(4):
        service.push_frames("a", CHUNK)
        service.push_frames("b", CHUNK)
    horizon = 0.0
    while service.scheduler.pending_events:
        horizon += 0.3
        service.run(until=horizon)
        status = service.status()
        for station in status.stations:
            assert 0.0 <= station.utilisation <= 1.0 + 1e-12, (
                f"{station.name} at t={horizon}: {station.utilisation}")
        assert status.max_utilisation <= 1.0 + 1e-12


def test_mid_service_cut_reports_saturated_edge_exactly():
    service = StreamingService(num_edge_servers=1)
    service.open_session("a")
    service.push_frames("a", FrameChunk(
        num_frames=10, frames_for_inference=1, edge_seconds=100.0,
        cloud_seconds=0.0, camera_edge_bytes=0, edge_cloud_bytes=0))
    service.run_for(50.0)
    (edge,) = [station for station in service.status().stations
               if station.name == "edge:0"]
    assert edge.in_service == 1
    # Busy since ~t=0.005 (LAN latency); pro-rated busy over the 50 s
    # horizon is just under 1.0 — and no longer the 2.0 the start-charging
    # bug produced.
    assert 0.9 < edge.utilisation <= 1.0


def test_session_snapshots_track_progress_and_latency():
    service = StreamingService(
        num_edge_servers=1,
        tenants=(TenantPolicy(name="t", max_sessions=4),))
    service.open_session("a", tenant="t")
    service.push_frames("a", CHUNK)
    service.push_frames("a", CHUNK)
    status = service.status()
    (snapshot,) = status.sessions
    assert snapshot.session_id == "a"
    assert snapshot.tenant == "t"
    assert snapshot.state == "open"
    assert snapshot.in_flight == 2
    assert snapshot.chunks_completed == 0
    assert math.isnan(snapshot.latency_percentiles[50])  # no completions yet
    assert status.tenants == {"default": 0, "t": 1}
    service.drain()
    (snapshot,) = service.status().sessions
    assert snapshot.in_flight == 0
    assert snapshot.chunks_completed == 2
    assert snapshot.latency_percentiles[50] > 0.0


def test_counters_and_clock_fields_under_real_time():
    clock = RealTimeClock(speedup=1e9)
    service = StreamingService(num_edge_servers=1, clock=clock,
                               max_sessions=1)
    service.open_session("a")
    with pytest.raises(AdmissionError):
        service.open_session("b")
    service.push_frames("a", CHUNK)
    service.drain()
    status = service.status()
    assert status.sessions_rejected == 1
    assert status.clock.startswith("real-time")
    assert status.speedup == 1e9
    assert status.clock_max_lag_seconds >= 0.0
    assert status.events_processed == service.scheduler.events_processed
    assert status.wall_run_seconds > 0.0


def handcrafted_status() -> ServiceStatus:
    """A snapshot exercising every lossy corner of naive JSON encoding:
    int dict keys, nan, both infinities."""
    return ServiceStatus(
        virtual_now=12.5, wall_run_seconds=0.25, clock="virtual",
        speedup=float("inf"), clock_max_lag_seconds=0.0,
        events_processed=100, pending_events=3, active_sessions=1,
        total_sessions=2, sessions_rejected=1, pushes_rejected=0,
        tenants={"default": 1},
        stations=(StationSnapshot(name="edge:0", queue_depth=2, in_service=1,
                                  busy_seconds=4.5, utilisation=0.36,
                                  completed=9),),
        sessions=(SessionSnapshot(
            session_id="cam-a", tenant="default", edge_index=0, state="open",
            frames_pushed=300, chunks_pushed=10, chunks_completed=8,
            in_flight=2, lan_queue_depth=0,
            latency_percentiles={50: 0.125, 95: float("nan"),
                                 99: float("-inf")},
            parameter_version=2),),
        close_reasons={"client": 1},
        breaker_states={0: "closed", 1: "open"},
        fault_counters={"crashes_seen": 1},
        retune_counters={"retunes_applied": 2},
        retune_history=("camera=cam-a t=0.000000 v1 trigger=initial "
                        "old=[none] new=[gop=500, sc=200] f1=nan",),
        health_history=(HealthSample(virtual_now=6.0,
                                     counters={"crashes_seen": 1}),),
    )


class TestStatusJsonRoundTrip:
    def test_round_trip_is_byte_identical(self):
        # Regression: json.dumps(asdict(status)) used to stringify the
        # int percentile/breaker keys and choke on nan/inf.  The wire
        # format must survive encode -> decode -> encode unchanged.
        status = handcrafted_status()
        restored = ServiceStatus.from_json(status.to_json())
        assert restored.to_json() == status.to_json()
        assert restored.to_json(indent=2) == status.to_json(indent=2)

    def test_int_keys_are_restored_as_ints(self):
        restored = ServiceStatus.from_json(handcrafted_status().to_json())
        (session,) = restored.sessions
        assert sorted(session.latency_percentiles) == [50, 95, 99]
        assert all(isinstance(key, int)
                   for key in session.latency_percentiles)
        assert sorted(restored.breaker_states) == [0, 1]
        assert all(isinstance(key, int) for key in restored.breaker_states)

    def test_nan_and_inf_survive_via_sentinels(self):
        text = handcrafted_status().to_json()
        assert '"nan"' in text and '"inf"' in text and '"-inf"' in text
        restored = ServiceStatus.from_json(text)
        (session,) = restored.sessions
        assert session.latency_percentiles[50] == 0.125
        assert math.isnan(session.latency_percentiles[95])
        assert session.latency_percentiles[99] == float("-inf")
        assert restored.speedup == float("inf")

    def test_to_json_is_strict_json(self):
        # allow_nan is off: the payload parses under a strict decoder.
        text = handcrafted_status().to_json()
        json.loads(text, parse_constant=lambda name: pytest.fail(
            f"non-standard JSON constant leaked: {name}"))

    def test_live_drained_service_round_trips(self):
        service = StreamingService(num_edge_servers=1)
        service.open_session("a")
        service.push_frames("a", CHUNK)
        service.drain()
        status = service.status()
        # The live snapshot has real nan-free percentiles and int keys.
        assert ServiceStatus.from_json(status.to_json()).to_json() == (
            status.to_json())

    def test_live_mid_run_status_with_nan_percentiles_round_trips(self):
        service = StreamingService(num_edge_servers=1)
        service.open_session("a")
        service.push_frames("a", CHUNK)  # no completions: percentiles nan
        status = service.status()
        assert math.isnan(status.sessions[0].latency_percentiles[50])
        assert ServiceStatus.from_json(status.to_json()).to_json() == (
            status.to_json())


def replaced(field: str, value) -> str:
    """The handcrafted status as JSON with one top-level field swapped."""
    payload = json.loads(handcrafted_status().to_json())
    payload[field] = value
    return json.dumps(payload)


@pytest.mark.parametrize("text", [
    "not json", "{}", "[]",
    pytest.param(replaced("virtual_now", "soon"), id="bad-float"),
    pytest.param(replaced("breaker_states", []), id="list-for-dict"),
])
def test_from_json_rejects_malformed_text(text):
    """Regression: malformed text used to escape as a bare
    JSONDecodeError, KeyError, TypeError, ValueError or AttributeError."""
    with pytest.raises(ServiceError, match="malformed service status"):
        ServiceStatus.from_json(text)


class TestHealthHistoryRing:
    def faulted_service(self) -> StreamingService:
        # One edge of two crashing for good at t=0.5 is the cheapest
        # deterministic way to make the combined counters non-empty.
        return StreamingService(
            num_edge_servers=2,
            faults=FaultPlan((EdgeCrash(edge_index=1, at_seconds=0.5),)))

    def test_clean_runs_never_sample(self):
        service = StreamingService(num_edge_servers=1)
        service.open_session("a")
        service.push_frames("a", CHUNK)
        for _ in range(5):
            assert service.status().health_history == ()
        service.drain()
        assert service.status().health_history == ()

    def test_samples_capture_time_and_counters(self):
        service = self.faulted_service()
        service.run_for(1.0)
        status = service.status()
        (sample,) = status.health_history
        assert sample.virtual_now == status.virtual_now
        assert sample.counters["crashes_seen"] == 1
        assert sample.counters == status.fault_counters

    def test_ring_is_bounded_and_keeps_the_newest(self):
        service = self.faulted_service()
        times = []
        for step in range(1, HEALTH_HISTORY_SAMPLES + 3):
            service.run(until=float(step))
            times.append(service.status().virtual_now)
        history = service.status().health_history
        assert len(history) == HEALTH_HISTORY_SAMPLES == 64
        # The ring evicted the oldest samples and kept the latest ones
        # (the final status() call itself appended one more sample).
        assert [sample.virtual_now for sample in history] == times[
            -(HEALTH_HISTORY_SAMPLES - 1):] + [service.scheduler.now]
