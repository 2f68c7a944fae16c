"""Multiprocess fleet execution: parity, determinism and merge edge cases.

The contract under test: for any job list, configuration and seed,
``FleetOrchestrator`` with ``fleet_workers=N`` produces a report equal to
the single-process reference path (``fleet_workers=1``) — bit-identical,
because per-edge virtual timestamps are chains of the same float
additions.
"""

import math

import pytest

from repro.cluster.fleet import CameraJob, FleetOrchestrator
from repro.config import SystemConfig
from repro.errors import ClusterError, ConfigurationError
from repro.parallel import empty_edge_result, replay_cloud

TOLERANCE = 0.0


def make_jobs(count, heterogeneous=True):
    """A small fleet of jobs (optionally all identical to force float ties)."""
    jobs = []
    for index in range(count):
        spread = (index % 5) if heterogeneous else 0
        jobs.append(CameraJob(
            camera=f"cam-{index:02d}", video=f"video-{spread}",
            num_frames=300 + spread * 30, frames_for_inference=12 + spread,
            edge_seconds=0.7 + spread * 0.13, cloud_seconds=0.4 + spread * 0.05,
            camera_edge_bytes=800_000 + spread * 1013,
            edge_cloud_bytes=250_000 + spread * 577))
    return jobs


def assert_reports_equal(reference, candidate):
    """The shared parity contract: no mismatches in any report field."""
    assert reference.parity_mismatches(candidate, TOLERANCE) == []


class TestParallelParity:
    @pytest.mark.parametrize("num_edges,policy,jitter", [
        (1, "round-robin", 0.0),
        (3, "round-robin", 0.0),
        (4, "least-loaded", 0.0),
        (3, "bandwidth-aware", 2.0),
        (2, "least-loaded", 1.5),
    ])
    def test_matches_single_process(self, num_edges, policy, jitter):
        jobs = make_jobs(12)
        serial = FleetOrchestrator(
            jobs, num_edge_servers=num_edges, policy=policy,
            arrival_jitter_seconds=jitter, seed=11).run()
        parallel = FleetOrchestrator(
            jobs, num_edge_servers=num_edges, policy=policy,
            arrival_jitter_seconds=jitter, seed=11, fleet_workers=3).run()
        assert_reports_equal(serial, parallel)

    def test_tied_arrivals_with_different_wan_starts(self):
        """Regression: two jobs from different edges arrive at the cloud at
        the exact same instant but with *different* WAN start times and
        different cloud costs.  The joint scheduler serves the one whose
        WAN transfer started earlier (its completion event was inserted
        first); a naive job-index tie-break serves the other and diverges.
        """
        # Zero link latency; 30 Mbps WAN => 3.75 MB transfers in exactly 1 s.
        config = SystemConfig(camera_edge_latency_ms=0.0,
                              edge_cloud_latency_ms=0.0)
        second_of_wan = int(30e6 / 8)
        jobs = [
            # edge 2.0s + WAN 1.0s -> arrives at 3.0, WAN started at 2.0.
            CameraJob(camera="late-wan-start", video="a", num_frames=10,
                      frames_for_inference=1, edge_seconds=2.0,
                      cloud_seconds=5.0, camera_edge_bytes=0,
                      edge_cloud_bytes=second_of_wan),
            # edge 1.0s + WAN 2.0s -> arrives at 3.0, WAN started at 1.0:
            # inserted first, so the joint sim clouds this job first.
            CameraJob(camera="early-wan-start", video="b", num_frames=10,
                      frames_for_inference=1, edge_seconds=1.0,
                      cloud_seconds=1.0, camera_edge_bytes=0,
                      edge_cloud_bytes=2 * second_of_wan),
        ]
        serial = FleetOrchestrator(jobs, num_edge_servers=2, config=config,
                                   cloud_workers=1).run()
        # Sanity: the scenario really produces the tie and the ordering.
        ends = [outcome.end_seconds for outcome in serial.outcomes]
        assert ends == [9.0, 4.0]
        parallel = FleetOrchestrator(jobs, num_edge_servers=2, config=config,
                                     cloud_workers=1, fleet_workers=2).run()
        assert_reports_equal(serial, parallel)
        assert [o.end_seconds for o in parallel.outcomes] == ends

    def test_completion_vs_tied_arrival_queue_depth(self):
        """Regression: a cloud completion and a new arrival at the same
        instant.  The joint sim inserted the completion first (at cloud
        service start), so it fires first and the arrival never queues; a
        replay that pre-inserts arrivals up-front inverts the order and
        over-counts ``cloud_tier.max_queue_depth``.
        """
        config = SystemConfig(camera_edge_latency_ms=0.0,
                              edge_cloud_latency_ms=0.0)
        second_of_wan = int(30e6 / 8)
        jobs = [
            # Arrives at cloud at t=1.0, computes 2.0s -> completes at 3.0.
            CameraJob(camera="first", video="a", num_frames=10,
                      frames_for_inference=1, edge_seconds=0.5,
                      cloud_seconds=2.0, camera_edge_bytes=0,
                      edge_cloud_bytes=second_of_wan // 2),
            # WAN starts at 2.0 (after 1.0s edge on its own server), lands
            # at exactly t=3.0 — the instant the first job's cloud slot
            # frees up.
            CameraJob(camera="tied", video="b", num_frames=10,
                      frames_for_inference=1, edge_seconds=2.0,
                      cloud_seconds=1.0, camera_edge_bytes=0,
                      edge_cloud_bytes=second_of_wan),
        ]
        serial = FleetOrchestrator(jobs, num_edge_servers=2, config=config,
                                   cloud_workers=1).run()
        assert [o.end_seconds for o in serial.outcomes] == [3.0, 4.0]
        assert serial.cloud_tier.max_queue_depth == 0
        parallel = FleetOrchestrator(jobs, num_edge_servers=2, config=config,
                                     cloud_workers=1, fleet_workers=2).run()
        assert_reports_equal(serial, parallel)
        assert parallel.cloud_tier.max_queue_depth == 0

    def test_identical_jobs_with_cloud_contention(self):
        """Exact virtual-time ties across edges plus a queueing cloud tier:
        the worst case for the decomposed replay's tie-breaking."""
        jobs = make_jobs(12, heterogeneous=False)
        serial = FleetOrchestrator(jobs, num_edge_servers=4,
                                   cloud_workers=2).run()
        parallel = FleetOrchestrator(jobs, num_edge_servers=4, cloud_workers=2,
                                     fleet_workers=4).run()
        assert_reports_equal(serial, parallel)

    def test_parallel_run_is_deterministic(self):
        jobs = make_jobs(10)
        first = FleetOrchestrator(jobs, num_edge_servers=3, seed=5,
                                  arrival_jitter_seconds=1.0,
                                  fleet_workers=2).run()
        second = FleetOrchestrator(jobs, num_edge_servers=3, seed=5,
                                   arrival_jitter_seconds=1.0,
                                   fleet_workers=2).run()
        assert first.as_dict() == second.as_dict()

    def test_config_fleet_workers_is_honoured(self):
        jobs = make_jobs(8)
        config = SystemConfig(fleet_workers=2)
        orchestrator = FleetOrchestrator(jobs, num_edge_servers=2,
                                         config=config)
        assert orchestrator.fleet_workers == 2
        serial = FleetOrchestrator(jobs, num_edge_servers=2).run()
        assert_reports_equal(serial, orchestrator.run())

    def test_explicit_fleet_workers_overrides_config(self):
        jobs = make_jobs(4)
        orchestrator = FleetOrchestrator(
            jobs, num_edge_servers=2, config=SystemConfig(fleet_workers=4),
            fleet_workers=1)
        assert orchestrator.fleet_workers == 1


class TestEmptyTiers:
    """Regression: merges must survive edges that received no jobs."""

    def test_more_edges_than_cameras_single_process(self):
        jobs = make_jobs(2)
        report = FleetOrchestrator(jobs, num_edge_servers=6).run()
        assert report.num_edge_servers == 6
        assert len(report.edge_tiers) == 6
        idle = [tier for tier in report.edge_tiers if tier.completed == 0]
        assert len(idle) == 4
        assert all(tier.utilisation == 0.0 for tier in idle)
        assert math.isfinite(report.mean_edge_utilisation)

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded",
                                        "bandwidth-aware"])
    def test_more_edges_than_cameras_parallel(self, policy):
        jobs = make_jobs(2)
        serial = FleetOrchestrator(jobs, num_edge_servers=6,
                                   policy=policy).run()
        parallel = FleetOrchestrator(jobs, num_edge_servers=6, policy=policy,
                                     fleet_workers=4).run()
        assert_reports_equal(serial, parallel)
        assert len(parallel.edge_tiers) == 6
        assert len(parallel.wan_tiers) == 6

    def test_zero_cost_jobs_do_not_divide_by_zero(self):
        """A makespan of ~0 must yield utilisation 0, not a ZeroDivisionError."""
        jobs = [CameraJob(camera="z", video="v", num_frames=0,
                          frames_for_inference=0, edge_seconds=0.0,
                          cloud_seconds=0.0, camera_edge_bytes=0,
                          edge_cloud_bytes=0)]
        config = SystemConfig(camera_edge_latency_ms=0.0,
                              edge_cloud_latency_ms=0.0)
        for workers in (1, 2):
            report = FleetOrchestrator(jobs, num_edge_servers=3, config=config,
                                       fleet_workers=workers).run()
            assert report.makespan_seconds == 0.0
            assert all(tier.utilisation == 0.0 for tier in report.edge_tiers)
            assert report.cloud_tier.utilisation == 0.0

    def test_empty_edge_result_shape(self):
        result = empty_edge_result(7)
        assert result.edge_index == 7
        assert result.events_processed == 0
        assert result.lan_stats.busy_seconds == 0.0


class TestParallelComponents:
    def test_replay_cloud_fifo_and_stats(self):
        # Three jobs, one cloud slot: arrivals at 0, 0, 1, inserted in job
        # order; the tied pair is served in insertion order.
        ends, stats, finish_events = replay_cloud(
            arrivals=[0.0, 0.0, 1.0], service_seconds=[2.0, 2.0, 2.0],
            cloud_workers=1, insert_times=[0.0, 0.0, 0.0], order=[0, 1, 2])
        assert ends == [2.0, 4.0, 6.0]
        assert stats.busy_seconds == 6.0
        assert stats.completed == 3
        assert finish_events == 3

    def test_replay_cloud_insertion_order_breaks_arrival_ties(self):
        # Same arrivals, but job 1's WAN transfer started first: its
        # completion event was inserted first, so the cloud serves it first.
        ends, _, _ = replay_cloud(
            arrivals=[3.0, 3.0], service_seconds=[5.0, 1.0],
            cloud_workers=1, insert_times=[2.0, 1.0], order=[1, 0])
        assert ends == [9.0, 4.0]

    def test_replay_cloud_parallel_slots(self):
        ends, stats, _ = replay_cloud(
            arrivals=[0.0, 0.0], service_seconds=[3.0, 1.0], cloud_workers=2,
            insert_times=[0.0, 0.0], order=[0, 1])
        assert ends == [3.0, 1.0]
        assert stats.max_queue_depth == 0


class TestValidation:
    def test_fleet_workers_must_be_non_negative(self):
        jobs = make_jobs(2)
        with pytest.raises(ClusterError):
            FleetOrchestrator(jobs, fleet_workers=-1)
        with pytest.raises(ConfigurationError):
            SystemConfig(fleet_workers=-1)

    def test_zero_fleet_workers_means_auto(self):
        from repro.config import available_cpu_count
        expected = available_cpu_count()
        assert SystemConfig(fleet_workers=0).fleet_workers == expected
        orchestrator = FleetOrchestrator(make_jobs(2), fleet_workers=0)
        assert orchestrator.fleet_workers == expected

    def test_with_bandwidth_preserves_fleet_workers(self):
        config = SystemConfig(fleet_workers=3).with_bandwidth(10.0)
        assert config.fleet_workers == 3
        assert config.edge_cloud_bandwidth_mbps == 10.0
