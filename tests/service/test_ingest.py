"""Admission control, backpressure and session lifecycle of StreamIngest."""

from __future__ import annotations

import pytest

from repro.cluster import CameraJob
from repro.config import SystemConfig
from repro.errors import AdmissionError, BackpressureError, ServiceError
from repro.service import (FrameChunk, SessionState, StreamingService,
                           TenantPolicy, chunk_camera_job)

CHUNK = FrameChunk(num_frames=30, frames_for_inference=3,
                   edge_seconds=0.2, cloud_seconds=0.05,
                   camera_edge_bytes=1_000_000, edge_cloud_bytes=100_000)


def make_service(**kwargs):
    kwargs.setdefault("num_edge_servers", 2)
    return StreamingService(**kwargs)


class TestAdmission:
    def test_round_robin_placement(self):
        service = make_service(num_edge_servers=3)
        indices = [service.open_session(f"cam{i}").edge_index
                   for i in range(6)]
        assert indices == [0, 1, 2, 0, 1, 2]

    def test_pinned_placement_and_range_check(self):
        service = make_service()
        assert service.open_session("a", edge_index=1).edge_index == 1
        with pytest.raises(AdmissionError):
            service.open_session("b", edge_index=2)

    def test_service_wide_session_cap(self):
        service = make_service(max_sessions=2)
        service.open_session("a")
        service.open_session("b")
        with pytest.raises(AdmissionError):
            service.open_session("c")
        assert service.ingest.sessions_rejected == 1
        # Closing a drained session frees a slot.
        service.close_session("a")
        service.open_session("c")

    def test_unknown_tenant_rejected(self):
        service = make_service()
        with pytest.raises(AdmissionError):
            service.open_session("a", tenant="nobody")

    def test_tenant_quota(self):
        service = make_service(
            tenants=(TenantPolicy(name="acme", max_sessions=1),))
        service.open_session("a", tenant="acme")
        with pytest.raises(AdmissionError):
            service.open_session("b", tenant="acme")
        service.open_session("b")  # the default tenant is unaffected

    def test_duplicate_camera_rejected_until_closed(self):
        service = make_service()
        service.open_session("a")
        with pytest.raises(AdmissionError):
            service.open_session("a")
        service.close_session("a")
        assert service.open_session("a").state is SessionState.OPEN

    def test_wan_saturation_refuses_admissions_and_pushes(self):
        service = make_service(num_edge_servers=1, max_wan_queue_depth=1)
        service.open_session("a")
        # Uplink-heavy chunks (10 MB over the 30 Mbps WAN, no edge compute)
        # pile up on the single WAN: one in service, two queued.
        heavy = FrameChunk(num_frames=30, frames_for_inference=3,
                           edge_seconds=0.0, cloud_seconds=0.05,
                           camera_edge_bytes=1_000,
                           edge_cloud_bytes=10_000_000)
        for _ in range(3):
            service.push_frames("a", heavy)
        service.run_for(0.1)
        assert service.wan_links[0].queue_depth >= 1
        with pytest.raises(AdmissionError):
            service.open_session("b")
        with pytest.raises(BackpressureError):
            service.push_frames("a", heavy)
        service.drain()
        service.open_session("b")  # queue drained; admission recovers


class TestBackpressure:
    def test_in_flight_bound(self):
        service = make_service(
            tenants=(TenantPolicy(name="t", max_pending_chunks=2),))
        service.open_session("a", tenant="t")
        service.push_frames("a", CHUNK)
        service.push_frames("a", CHUNK)
        with pytest.raises(BackpressureError):
            service.push_frames("a", CHUNK)
        assert service.ingest.pushes_rejected == 1
        service.drain()
        service.push_frames("a", CHUNK)  # the pipeline drained; room again

    def test_retune_raises_bound_live(self):
        service = make_service(
            tenants=(TenantPolicy(name="t", max_pending_chunks=1),))
        service.open_session("a", tenant="t")
        service.push_frames("a", CHUNK)
        with pytest.raises(BackpressureError):
            service.push_frames("a", CHUNK)
        service.retune_session("a", max_pending_chunks=4)
        service.push_frames("a", CHUNK)  # same session, new bound, no drop
        session = service.ingest.sessions["a"]
        assert session.chunks_pushed == 2
        with pytest.raises(ServiceError):
            service.retune_session("a", max_pending_chunks=0)

    def test_retune_deploys_parameters_and_bumps_version(self):
        from repro.codec import EncoderParameters
        service = make_service()
        service.open_session("a")
        session = service.ingest.sessions["a"]
        assert session.parameters is None and session.parameter_version == 0
        tuned = EncoderParameters(gop_size=100, scenecut_threshold=200)
        service.retune_session("a", parameters=tuned)
        assert session.parameters == tuned
        assert session.parameter_version == 1
        # A bound-only retune must not touch the parameter version.
        service.retune_session("a", max_pending_chunks=4)
        assert session.parameter_version == 1
        service.push_frames("a", CHUNK)  # the retuned session stays live
        with pytest.raises(ServiceError):
            service.retune_session("a")  # neither knob given
        service.close_session("a")
        service.drain()
        with pytest.raises(ServiceError):
            service.retune_session("a", parameters=tuned)  # closed

    def test_push_to_closed_session_fails(self):
        service = make_service()
        service.open_session("a")
        service.close_session("a")
        with pytest.raises(ServiceError):
            service.push_frames("a", CHUNK)
        with pytest.raises(ServiceError):
            service.push_frames("ghost", CHUNK)


class TestLifecycle:
    def test_close_drains_in_flight_chunks(self):
        service = make_service()
        service.open_session("a")
        service.push_frames("a", CHUNK)
        session = service.close_session("a")
        assert session.state is SessionState.DRAINING
        service.drain()
        assert session.state is SessionState.CLOSED
        assert session.chunks_completed == 1
        assert session.closed_at == pytest.approx(session.last_completion)

    def test_close_idle_session_is_immediate(self):
        service = make_service()
        service.open_session("a")
        assert service.close_session("a").state is SessionState.CLOSED
        # Closing again is idempotent.
        assert service.close_session("a").state is SessionState.CLOSED

    def test_latencies_and_accumulators_recorded(self):
        service = make_service(num_edge_servers=1)
        service.open_session("a")
        service.push_frames("a", CHUNK)
        service.push_frames("a", CHUNK)
        service.drain()
        session = service.ingest.sessions["a"]
        assert session.frames_pushed == 60
        assert session.camera_edge_bytes_pushed == 2_000_000
        assert len(session.chunk_latencies) == 2
        assert session.first_arrival == 0.0
        assert all(latency > 0 for latency in session.chunk_latencies)


class TestTenantReconfiguration:
    def test_register_tenant_does_not_touch_existing_sessions(self):
        service = make_service(
            tenants=(TenantPolicy(name="t", max_sessions=4,
                                  max_pending_chunks=8),))
        service.open_session("a", tenant="t")
        service.push_frames("a", CHUNK)
        service.register_tenant(TenantPolicy(name="t", max_sessions=1,
                                             max_pending_chunks=1))
        session = service.ingest.sessions["a"]
        assert session.max_pending_chunks == 8  # grandfathered bound
        assert session.state is SessionState.OPEN
        # The new quota only constrains future admissions.
        with pytest.raises(AdmissionError):
            service.open_session("b", tenant="t")
        service.drain()
        assert session.chunks_completed == 1  # nothing was dropped

    def test_tenant_config_sizes_camera_uplink(self):
        fast = SystemConfig(camera_edge_bandwidth_mbps=1000.0,
                            camera_edge_latency_ms=0.0)
        service = make_service(
            tenants=(TenantPolicy(name="fast", config=fast),))
        service.open_session("a", tenant="fast")
        service.open_session("b")
        assert service.lan_links["a"].link.bandwidth_mbps == 1000.0
        assert (service.lan_links["b"].link.bandwidth_mbps
                == service.config.camera_edge_bandwidth_mbps)


class TestChunkCameraJob:
    def test_totals_preserved_exactly(self):
        job = CameraJob(camera="c", video="v", num_frames=307,
                        frames_for_inference=41, edge_seconds=3.7,
                        cloud_seconds=1.3, camera_edge_bytes=1_234_567,
                        edge_cloud_bytes=98_765)
        chunks = chunk_camera_job(job, 7)
        assert len(chunks) == 7
        assert sum(chunk.num_frames for chunk in chunks) == 307
        assert sum(chunk.frames_for_inference for chunk in chunks) == 41
        assert sum(chunk.camera_edge_bytes for chunk in chunks) == 1_234_567
        assert sum(chunk.edge_cloud_bytes for chunk in chunks) == 98_765
        assert sum(chunk.edge_seconds for chunk in chunks) == pytest.approx(3.7)
        assert sum(chunk.cloud_seconds for chunk in chunks) == pytest.approx(1.3)
        assert all(chunk.num_frames in (43, 44) for chunk in chunks)

    def test_single_chunk_is_the_whole_job(self):
        job = CameraJob(camera="c", video="v", num_frames=10,
                        frames_for_inference=2, edge_seconds=1.0,
                        cloud_seconds=0.5, camera_edge_bytes=100,
                        edge_cloud_bytes=50)
        (chunk,) = chunk_camera_job(job, 1)
        assert chunk.num_frames == 10
        assert chunk.camera_edge_bytes == 100
        assert chunk.edge_seconds == pytest.approx(1.0)

    def test_invalid_chunk_counts_and_fields(self):
        job = CameraJob(camera="c", video="v", num_frames=10,
                        frames_for_inference=2, edge_seconds=1.0,
                        cloud_seconds=0.5, camera_edge_bytes=100,
                        edge_cloud_bytes=50)
        with pytest.raises(ServiceError):
            chunk_camera_job(job, 0)
        with pytest.raises(ServiceError):
            FrameChunk(num_frames=-1, frames_for_inference=0,
                       edge_seconds=0.0, cloud_seconds=0.0,
                       camera_edge_bytes=0, edge_cloud_bytes=0)

    @pytest.mark.parametrize("field", ["edge_seconds", "cloud_seconds"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_chunk_seconds_rejected(self, field, value):
        """Regression: ``nan < 0`` is false, so nan costs used to be
        admitted and poison the session's accumulators."""
        costs = {"edge_seconds": 0.1, "cloud_seconds": 0.1, field: value}
        with pytest.raises(ServiceError):
            FrameChunk(num_frames=1, frames_for_inference=1,
                       camera_edge_bytes=0, edge_cloud_bytes=0, **costs)
