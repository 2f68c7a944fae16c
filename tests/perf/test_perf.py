"""Tests for the perf instrumentation subsystem and its fleet wiring."""

import pytest

from repro.cluster.fleet import CameraJob, FleetOrchestrator
from repro.perf import PerfRecorder, Stopwatch, get_recorder, section


class TestStopwatch:
    def test_start_stop(self):
        watch = Stopwatch().start()
        elapsed = watch.stop()
        assert elapsed >= 0.0
        assert watch.elapsed_seconds == elapsed

    def test_context_manager(self):
        with Stopwatch() as watch:
            pass
        assert watch.elapsed_seconds >= 0.0

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()


class TestPerfRecorder:
    def test_sections_accumulate(self):
        recorder = PerfRecorder()
        with recorder.section("stage"):
            pass
        with recorder.section("stage"):
            pass
        stats = recorder.sections["stage"]
        assert stats.calls == 2
        assert stats.total_seconds >= 0.0
        assert stats.min_seconds <= stats.max_seconds
        assert stats.mean_seconds == pytest.approx(stats.total_seconds / 2)

    def test_summary(self):
        recorder = PerfRecorder()
        with recorder.section("a"):
            pass
        summary = recorder.summary()
        assert summary["a"]["calls"] == 1.0

    def test_global_recorder_helpers(self):
        with section("test-section"):
            pass
        assert get_recorder().sections["test-section"].calls >= 1


class TestFleetPerfFields:
    def test_report_carries_simulation_wall_clock(self):
        jobs = [CameraJob(camera=f"cam-{index}", video=f"v{index}",
                          num_frames=100, frames_for_inference=10,
                          edge_seconds=1.0, cloud_seconds=0.5,
                          camera_edge_bytes=10_000, edge_cloud_bytes=1_000)
                for index in range(4)]
        report = FleetOrchestrator(jobs, num_edge_servers=2).run()
        assert report.sim_wall_seconds > 0.0
        assert report.events_processed > 0
        # The deterministic flat view excludes wall-clock noise but keeps the
        # (deterministic) event count.
        row = report.as_dict()
        assert "sim_wall_seconds" not in row
        assert row["events_processed"] == float(report.events_processed)
