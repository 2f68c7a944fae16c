"""Virtual-vs-real-time parity and the mid-stream reconfiguration soak.

The parity contract: a :class:`ClockDriver` decides *when* events fire in
wall time, never what they compute, so the same fed workload produces a
:class:`FleetReport` identical (to the 1e-6 ``parity_mismatches``
tolerance) under the virtual and real-time drivers.  The soak test layers
graceful reconfiguration on top — tenants registered and sessions retuned
mid-stream, as scheduler control events — and requires that no stream is
dropped and parity still holds.
"""

from __future__ import annotations

import pytest

from repro.cluster import CameraJob
from repro.errors import ServiceError
from repro.rng import make_rng
from repro.service import (ChunkFeeder, RealTimeClock, SessionState,
                           StreamingService, TenantPolicy, VirtualClock,
                           chunk_camera_job)

TOLERANCE = 1e-6


def make_plans(num_cameras: int, num_chunks: int = 5, seed: int = 321):
    plans = []
    for index in range(num_cameras):
        camera = f"cam-{index:02d}"
        rng = make_rng(seed, "parity", camera)
        job = CameraJob(
            camera=camera, video=f"stream:{camera}",
            num_frames=int(rng.integers(100, 200)),
            frames_for_inference=int(rng.integers(5, 20)),
            edge_seconds=float(rng.uniform(0.3, 1.0)),
            cloud_seconds=float(rng.uniform(0.1, 0.4)),
            camera_edge_bytes=int(rng.uniform(5e5, 2e6)),
            edge_cloud_bytes=int(rng.uniform(5e4, 3e5)),
        )
        plans.append((camera, chunk_camera_job(job, num_chunks)))
    return plans


def feed(service: StreamingService, plans, tenant: str = "default",
         period: float = 0.5):
    feeders = []
    for index, (camera, chunks) in enumerate(plans):
        service.open_session(camera, tenant=tenant)
        feeders.append(ChunkFeeder(service, camera, chunks,
                                   period_seconds=period)
                       .start(at=0.1 * index))
    return feeders


class TestClockParity:
    def test_real_time_report_identical_to_virtual(self):
        plans = make_plans(6)

        def run(clock):
            service = StreamingService(num_edge_servers=2, clock=clock)
            feed(service, plans)
            service.drain()
            return service.fleet_report()

        baseline = run(VirtualClock())
        live = run(RealTimeClock(speedup=1e6))
        assert baseline.parity_mismatches(live, TOLERANCE) == []
        assert baseline.makespan_seconds > 0
        assert live.events_processed == baseline.events_processed

    def test_sliced_runs_match_one_shot_drain(self):
        plans = make_plans(4)

        def run(sliced: bool):
            service = StreamingService(num_edge_servers=2,
                                       clock=VirtualClock())
            feed(service, plans)
            if sliced:
                while service.scheduler.pending_events:
                    service.run_for(0.7)
            else:
                service.drain()
            return service.fleet_report()

        assert run(False).parity_mismatches(run(True), TOLERANCE) == []

    def test_real_time_pacing_smoke(self):
        # A genuinely paced (but heavily sped-up) run: ~1.5 virtual seconds
        # at 100x costs ~15 ms of wall sleeping and still matches virtual.
        plans = make_plans(2, num_chunks=2)

        def run(clock):
            service = StreamingService(num_edge_servers=1, clock=clock)
            feed(service, plans, period=0.3)
            service.drain()
            return service.fleet_report()

        baseline = run(VirtualClock())
        clock = RealTimeClock(speedup=100.0)
        live = run(clock)
        assert baseline.parity_mismatches(live, TOLERANCE) == []
        assert clock.total_sleep_seconds > 0.0


class TestReconfigurationSoak:
    def test_mid_stream_reconfiguration_drops_nothing(self):
        plans = make_plans(18, num_chunks=6, seed=99)
        tenants = (TenantPolicy(name="alpha", max_sessions=8),
                   TenantPolicy(name="beta", max_sessions=8),
                   TenantPolicy(name="gamma", max_sessions=8))

        def run(clock):
            service = StreamingService(num_edge_servers=3, clock=clock,
                                       max_sessions=64, tenants=tenants)
            for index, (camera, chunks) in enumerate(plans):
                tenant = ("alpha", "beta", "gamma")[index % 3]
                service.open_session(camera, tenant=tenant)
                ChunkFeeder(service, camera, chunks,
                            period_seconds=0.5).start(at=0.05 * index)

            # Mid-stream reconfigurations, as ordinary control events so
            # they land identically under either clock driver:
            # a new tenant is admitted while streams are in full flight...
            def admit_delta():
                service.register_tenant(TenantPolicy(name="delta",
                                                     max_sessions=4))
                service.open_session("late-cam", tenant="delta")
                ChunkFeeder(service, "late-cam", plans[0][1],
                            period_seconds=0.5).start()

            service.at(1.2, admit_delta)
            # ... an existing tenant's quota is tightened ...
            service.at(1.6, lambda: service.register_tenant(
                TenantPolicy(name="gamma", max_sessions=1)))
            # ... and live sessions are retuned.
            for camera in ("cam-00", "cam-07", "cam-11"):
                service.at(2.0, lambda cam=camera: service.retune_session(
                    cam, max_pending_chunks=2))
            service.drain()
            return service

        baseline = run(VirtualClock())
        live = run(RealTimeClock(speedup=1e6))

        for service in (baseline, live):
            sessions = service.ingest.sessions
            assert len(sessions) == 19  # 18 originals + the late admission
            for session in sessions.values():
                # No drops: every pushed chunk completed, every session
                # drained to CLOSED, every planned chunk was pushed.
                assert session.state is SessionState.CLOSED
                assert session.chunks_completed == session.chunks_pushed
                assert session.chunks_pushed == 6
            # The tightened gamma quota never dropped existing sessions.
            gamma = [session for session in sessions.values()
                     if session.tenant == "gamma"]
            assert len(gamma) == 6
            status = service.status()
            assert status.active_sessions == 0
            assert status.max_utilisation <= 1.0 + 1e-12

        mismatches = baseline.fleet_report().parity_mismatches(
            live.fleet_report(), TOLERANCE)
        assert mismatches == []

    def test_backpressured_feeder_retries_under_both_clocks(self):
        plans = make_plans(2, num_chunks=8, seed=5)

        def run(clock):
            service = StreamingService(
                num_edge_servers=1, clock=clock,
                tenants=(TenantPolicy(name="tight", max_pending_chunks=1),))
            feeders = []
            for camera, chunks in plans:
                service.open_session(camera, tenant="tight")
                feeders.append(ChunkFeeder(service, camera, chunks,
                                           period_seconds=0.2).start())
            service.drain()
            return service, feeders

        baseline, base_feeders = run(VirtualClock())
        live, live_feeders = run(RealTimeClock(speedup=1e6))
        assert sum(feeder.retries for feeder in base_feeders) > 0
        assert ([feeder.retries for feeder in base_feeders]
                == [feeder.retries for feeder in live_feeders])
        assert baseline.fleet_report().parity_mismatches(
            live.fleet_report(), TOLERANCE) == []
        for feeder in base_feeders:
            assert feeder.done


def test_virtual_clock_is_the_default():
    service = StreamingService()
    assert isinstance(service.clock, VirtualClock)


def test_run_for_rejects_negative():
    service = StreamingService()
    with pytest.raises(ServiceError):
        service.run_for(-1.0)


@pytest.mark.parametrize("call", [
    lambda service: service.run_for(float("nan")),
    lambda service: service.run_for(float("inf")),
    lambda service: service.at(float("nan"), print),
    lambda service: service.at(float("inf"), print),
    lambda service: ChunkFeeder(service, "cam", [],
                                period_seconds=float("nan")),
    lambda service: ChunkFeeder(service, "cam", [],
                                period_seconds=float("inf")),
    lambda service: ChunkFeeder(service, "cam", [], period_seconds=1.0,
                                retry_seconds=float("nan")),
], ids=["run_for-nan", "run_for-inf", "at-nan", "at-inf", "period-nan",
        "period-inf", "retry-nan"])
def test_non_finite_times_are_refused_at_the_service_boundary(call):
    """``nan < 0`` and ``nan <= 0`` are false: at the parent ``run_for(nan)``
    returned 0 silently and a nan-period feeder drained the service with
    its clock at nan."""
    service = StreamingService()
    with pytest.raises(ServiceError):
        call(service)
    assert (service.scheduler.now, service.scheduler.pending_events) == (0.0, 0)


def test_control_events_carry_their_arguments():
    service = StreamingService()
    fired = []
    service.at(1.0, fired.append, "at")
    service.after(0.5, fired.append, "after")
    assert service.drain() == 2
    assert fired == ["after", "at"]
