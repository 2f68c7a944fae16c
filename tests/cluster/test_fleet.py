"""Tests for the multi-edge fleet orchestrator and placement policies."""

import math

import pytest

from repro.cluster import (CameraJob, FleetOrchestrator, PlacementPolicy,
                           sweep_edge_counts)
from repro.config import SystemConfig
from repro.errors import ClusterError


def make_job(camera, edge_seconds=1.0, cloud_seconds=0.5,
             camera_edge_bytes=1_000_000, edge_cloud_bytes=100_000,
             num_frames=300, samples=12):
    return CameraJob(camera=camera, video=camera, num_frames=num_frames,
                     frames_for_inference=samples, edge_seconds=edge_seconds,
                     cloud_seconds=cloud_seconds,
                     camera_edge_bytes=camera_edge_bytes,
                     edge_cloud_bytes=edge_cloud_bytes)


def make_fleet_jobs(count=16):
    """A moderately heterogeneous fleet (edge load cycles 0.6..2.1 s)."""
    return [make_job(f"cam-{index:02d}", edge_seconds=0.6 + 0.3 * (index % 6),
                     cloud_seconds=0.3 + 0.1 * (index % 4))
            for index in range(count)]


class TestValidation:
    def test_empty_fleet_produces_well_formed_report(self):
        # Regression: report assembly used to crash on an empty fleet
        # (np.percentile over an empty latency list) — an admission layer
        # that rejects every camera must still get a usable report back.
        for workers in (1, 2):
            report = FleetOrchestrator(
                [], num_edge_servers=2, fleet_workers=workers).run()
            assert report.num_cameras == 0
            assert report.makespan_seconds == 0.0
            assert report.aggregate_throughput_fps == 0.0
            assert report.total_frames == 0
            assert report.outcomes == []
            assert report.assignments == {}
            assert len(report.edge_tiers) == 2
            assert all(math.isnan(value)
                       for value in report.latency_percentiles.values())
            assert report.cloud_tier.completed == 0
            row = report.as_dict()  # the flat view stays well-formed too
            assert row["num_cameras"] == 0.0
            assert report.parity_mismatches(report) == []

    def test_duplicate_camera_names_rejected(self):
        with pytest.raises(ClusterError):
            FleetOrchestrator([make_job("cam"), make_job("cam")])

    def test_bad_parameters_rejected(self):
        jobs = [make_job("cam")]
        with pytest.raises(ClusterError):
            FleetOrchestrator(jobs, num_edge_servers=0)
        with pytest.raises(ClusterError):
            FleetOrchestrator(jobs, edge_workers=0)
        with pytest.raises(ClusterError):
            FleetOrchestrator(jobs, cloud_workers=0)
        with pytest.raises(ClusterError):
            FleetOrchestrator(jobs, arrival_jitter_seconds=-1.0)
        # Regression: nan passed ``< 0`` and died as a bare OverflowError
        # inside rng.uniform at run time.
        with pytest.raises(ClusterError):
            FleetOrchestrator(jobs, arrival_jitter_seconds=float("nan"))
        with pytest.raises(ClusterError):
            FleetOrchestrator(jobs, fleet_workers=1.5)
        with pytest.raises(ClusterError):
            FleetOrchestrator(jobs, policy="sharpest-edge-first")

    def test_negative_job_fields_rejected(self):
        with pytest.raises(ClusterError):
            make_job("cam", edge_seconds=-1.0)
        with pytest.raises(ClusterError):
            make_job("cam", camera_edge_bytes=-1)

    @pytest.mark.parametrize("field", ["edge_seconds", "cloud_seconds"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_job_seconds_rejected(self, field, value):
        """Regression: ``nan < 0`` is false, so a nan cost used to sail
        through and surface as nan utilisation / a nan makespan (plus
        numpy RuntimeWarnings) in the report; inf as an infinite run."""
        with pytest.raises(ClusterError):
            make_job("cam", **{field: value})

    @pytest.mark.parametrize("field", ["camera_edge_bytes",
                                       "edge_cloud_bytes"])
    @pytest.mark.parametrize("value", [1_000_000.75, 2 ** 63, 2 ** 70,
                                       float("nan"), float("inf")])
    def test_byte_counts_must_be_whole_and_fit_int64(self, field, value):
        """Regression: the sharded fleet ships byte counts as int64
        columns, so a fractional count was floored there and nowhere else
        (eight jobs of 1_000_000.75 + i bytes on 2 edges: makespan
        0.71166734 serial vs 0.71166675 sharded) and 2**70 was a bare
        OverflowError only under ``fleet_workers > 1``."""
        with pytest.raises(ClusterError):
            make_job("cam", **{field: value})

    def test_whole_valued_float_byte_counts_stay_legal(self):
        jobs = [make_job(f"cam-{index}", camera_edge_bytes=1e6 + index,
                         edge_cloud_bytes=2.5e5) for index in range(8)]
        serial = FleetOrchestrator(jobs, num_edge_servers=2).run()
        sharded = FleetOrchestrator(jobs, num_edge_servers=2,
                                    fleet_workers=2).run()
        assert serial.parity_mismatches(sharded, 0.0) == []

    def test_policy_from_name_accepts_value_and_name(self):
        assert PlacementPolicy.from_name("least-loaded") is \
            PlacementPolicy.LEAST_LOADED
        assert PlacementPolicy.from_name("LEAST_LOADED") is \
            PlacementPolicy.LEAST_LOADED
        assert PlacementPolicy.from_name(PlacementPolicy.ROUND_ROBIN) is \
            PlacementPolicy.ROUND_ROBIN


class TestPlacement:
    def test_round_robin_cycles_edges(self):
        jobs = make_fleet_jobs(6)
        orchestrator = FleetOrchestrator(jobs, num_edge_servers=3,
                                         policy=PlacementPolicy.ROUND_ROBIN)
        assignments = orchestrator.assign()
        assert [assignments[job.camera] for job in jobs] == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_balances_compute(self):
        jobs = [make_job("heavy", edge_seconds=10.0),
                make_job("light-1", edge_seconds=1.0),
                make_job("light-2", edge_seconds=1.0),
                make_job("light-3", edge_seconds=1.0)]
        orchestrator = FleetOrchestrator(jobs, num_edge_servers=2,
                                         policy=PlacementPolicy.LEAST_LOADED)
        assignments = orchestrator.assign()
        # All light cameras dodge the edge holding the heavy one.
        assert assignments["heavy"] == 0
        assert {assignments["light-1"], assignments["light-2"],
                assignments["light-3"]} == {1}

    def test_bandwidth_aware_sees_transfer_load(self):
        # Same compute everywhere; one camera ships 100x the bytes, so the
        # bandwidth-aware policy isolates it while least-loaded (compute
        # only) would tie-break both heavy-uplink cameras onto edge 0 and 1
        # by arrival order.
        jobs = [make_job("chatty", edge_cloud_bytes=50_000_000),
                make_job("quiet-1"), make_job("quiet-2"), make_job("quiet-3")]
        orchestrator = FleetOrchestrator(jobs, num_edge_servers=2,
                                         policy=PlacementPolicy.BANDWIDTH_AWARE)
        assignments = orchestrator.assign()
        assert assignments["chatty"] == 0
        assert {assignments["quiet-1"], assignments["quiet-2"],
                assignments["quiet-3"]} == {1}


class TestFleetSimulation:
    def test_single_edge_totals_match_job_sums(self):
        jobs = make_fleet_jobs(5)
        report = FleetOrchestrator(jobs, num_edge_servers=1).run()
        assert report.total_frames == sum(job.num_frames for job in jobs)
        assert report.edge_busy_seconds == pytest.approx(
            sum(job.edge_seconds for job in jobs))
        assert report.cloud_busy_seconds == pytest.approx(
            sum(job.cloud_seconds for job in jobs))
        assert report.camera_edge_bytes == sum(job.camera_edge_bytes
                                               for job in jobs)
        assert report.edge_cloud_bytes == sum(job.edge_cloud_bytes
                                              for job in jobs)
        assert report.makespan_seconds > 0
        assert report.outcomes[-1].end_seconds <= report.makespan_seconds

    def test_throughput_monotone_in_edge_count(self):
        jobs = make_fleet_jobs(16)
        for policy in PlacementPolicy:
            reports = sweep_edge_counts(jobs, (1, 2, 4, 8), policy=policy)
            fps = [reports[count].aggregate_throughput_fps
                   for count in sorted(reports)]
            assert fps == sorted(fps), (policy, fps)
            # Adding edges reduces the makespan for this balanced fleet.
            assert reports[8].makespan_seconds < reports[1].makespan_seconds

    def test_busy_totals_are_schedule_invariant(self):
        jobs = make_fleet_jobs(12)
        single = FleetOrchestrator(jobs, num_edge_servers=1).run()
        fleet = FleetOrchestrator(jobs, num_edge_servers=4).run()
        assert fleet.edge_busy_seconds == pytest.approx(single.edge_busy_seconds)
        assert fleet.cloud_busy_seconds == pytest.approx(
            single.cloud_busy_seconds)
        assert fleet.edge_cloud_bytes == single.edge_cloud_bytes
        assert fleet.camera_edge_bytes == single.camera_edge_bytes

    def test_utilisation_and_queue_metrics(self):
        jobs = make_fleet_jobs(8)
        report = FleetOrchestrator(jobs, num_edge_servers=2).run()
        for tier in report.edge_tiers + report.wan_tiers + [report.cloud_tier]:
            assert 0.0 <= tier.utilisation <= 1.0
            assert tier.max_queue_depth >= 0
        assert 0.0 < report.mean_edge_utilisation <= 1.0
        # A 4-cameras-per-edge fleet necessarily queues somewhere on the edge.
        assert max(tier.max_queue_depth for tier in report.edge_tiers) > 0
        latencies = report.latency_percentiles
        assert latencies[50] <= latencies[95] <= latencies[99]
        assert all(value > 0 for value in latencies.values())

    def test_contention_inflates_latency(self):
        job = make_job("solo")
        alone = FleetOrchestrator([job]).run()
        crowd_jobs = [make_job(f"cam-{index}") for index in range(6)]
        crowded = FleetOrchestrator(crowd_jobs, num_edge_servers=1).run()
        assert crowded.latency_percentiles[99] > \
            alone.latency_percentiles[99] * 2

    def test_as_dict_flattens_metrics(self):
        report = FleetOrchestrator(make_fleet_jobs(4),
                                   num_edge_servers=2).run()
        row = report.as_dict()
        assert row["num_edge_servers"] == 2.0
        assert row["throughput_fps"] == pytest.approx(
            report.aggregate_throughput_fps)
        assert "latency_p95_seconds" in row
        assert not math.isnan(row["latency_p95_seconds"])


class TestDeterminism:
    def test_same_seed_reproduces_identical_metrics(self):
        jobs = make_fleet_jobs(10)
        def run_once():
            return FleetOrchestrator(
                jobs, num_edge_servers=3, policy=PlacementPolicy.LEAST_LOADED,
                arrival_jitter_seconds=2.0, seed=1234).run()
        first, second = run_once(), run_once()
        assert first.as_dict() == second.as_dict()
        assert first.assignments == second.assignments
        assert [outcome.end_seconds for outcome in first.outcomes] == \
            [outcome.end_seconds for outcome in second.outcomes]

    def test_different_seed_changes_arrivals(self):
        jobs = make_fleet_jobs(10)
        first = FleetOrchestrator(jobs, num_edge_servers=3,
                                  arrival_jitter_seconds=2.0, seed=1).run()
        second = FleetOrchestrator(jobs, num_edge_servers=3,
                                   arrival_jitter_seconds=2.0, seed=2).run()
        assert [outcome.start_seconds for outcome in first.outcomes] != \
            [outcome.start_seconds for outcome in second.outcomes]

    def test_zero_jitter_needs_no_seed(self):
        jobs = make_fleet_jobs(4)
        report = FleetOrchestrator(jobs, num_edge_servers=2).run()
        assert all(outcome.start_seconds == 0.0 for outcome in report.outcomes)

    def test_config_bandwidth_shapes_wan_time(self):
        jobs = make_fleet_jobs(4)
        fast = FleetOrchestrator(
            jobs, config=SystemConfig(edge_cloud_bandwidth_mbps=1000.0)).run()
        slow = FleetOrchestrator(
            jobs, config=SystemConfig(edge_cloud_bandwidth_mbps=5.0)).run()
        assert slow.wan_transfer_seconds > fast.wan_transfer_seconds
