"""Tests for the perf instrumentation subsystem and its fleet wiring."""

import json

import pytest

from repro.cluster.fleet import CameraJob, FleetOrchestrator
from repro.perf import (BenchReport, PerfRecorder, Stopwatch, get_recorder,
                        load_bench_runs, record_value, section)


class TestStopwatch:
    def test_start_stop(self):
        watch = Stopwatch().start()
        assert watch.running
        elapsed = watch.stop()
        assert elapsed >= 0.0
        assert watch.elapsed_seconds == elapsed
        assert not watch.running

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

    def test_counters(self):
        recorder = PerfRecorder()
        recorder.count("frames", 5)
        recorder.count("frames")
        assert recorder.counters["frames"].value == 6.0

    def test_summary_and_reset(self):
        recorder = PerfRecorder()
        with recorder.section("a"):
            pass
        summary = recorder.summary()
        assert summary["a"]["calls"] == 1.0
        recorder.reset()
        assert recorder.sections == {} and recorder.counters == {}

    def test_global_recorder_helpers(self):
        baseline = get_recorder().counters.get("test-counter")
        baseline_value = baseline.value if baseline else 0.0
        record_value("test-counter", 2)
        with section("test-section"):
            pass
        assert get_recorder().counters["test-counter"].value == baseline_value + 2
        assert get_recorder().sections["test-section"].calls >= 1


class TestBenchReport:
    def test_record_and_speedup(self):
        report = BenchReport("unit", context={"scale": 0.1})
        report.record("encode", 0.5, "seconds", frames=10)
        entry = report.record_speedup("codec", baseline_seconds=1.0,
                                      optimised_seconds=0.25)
        assert entry.value == pytest.approx(4.0)
        assert report.value_of("codec.baseline") == 1.0
        assert report.value_of("codec.speedup") == pytest.approx(4.0)
        with pytest.raises(KeyError):
            report.value_of("missing")

    def test_write_appends_runs(self, tmp_path):
        path = str(tmp_path / "BENCH_unit.json")
        first = BenchReport("unit")
        first.record("metric", 1.0)
        assert first.write(path) == path
        second = BenchReport("unit")
        second.record("metric", 2.0)
        second.write(path)
        runs = load_bench_runs(path)
        assert len(runs) == 2
        assert runs[0]["entries"][0]["value"] == 1.0
        assert runs[1]["entries"][0]["value"] == 2.0
        assert runs[1]["report"] == "unit"

    def test_write_replaces_corrupt_files(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        path.write_text("{not json")
        report = BenchReport("unit")
        report.record("metric", 3.0)
        report.write(str(path))
        assert len(load_bench_runs(str(path))) == 1

    def test_write_caps_history(self, tmp_path):
        path = str(tmp_path / "BENCH_unit.json")
        for index in range(5):
            report = BenchReport("unit")
            report.record("metric", float(index))
            report.write(path, max_runs=3)
        runs = load_bench_runs(path)
        assert len(runs) == 3
        assert runs[-1]["entries"][0]["value"] == 4.0

    def test_default_path_and_validation(self, tmp_path):
        assert BenchReport("x").default_path(str(tmp_path)).endswith("BENCH_x.json")
        with pytest.raises(ValueError):
            BenchReport("")

    def test_written_json_is_sorted_and_valid(self, tmp_path):
        path = str(tmp_path / "BENCH_unit.json")
        report = BenchReport("unit")
        report.record("metric", 1.5, "ratio", size=3)
        report.write(path)
        with open(path, "r", encoding="utf-8") as handle:
            parsed = json.load(handle)
        assert parsed[0]["entries"][0]["params"] == {"size": 3}


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
        assert report.events_per_second > 0.0
        # The deterministic flat view excludes wall-clock noise but keeps the
        # (deterministic) event count.
        row = report.as_dict()
        assert "sim_wall_seconds" not in row
        assert row["events_processed"] == float(report.events_processed)
