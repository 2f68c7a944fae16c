"""Tests for the multi-edge fleet orchestrator and placement policies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CameraJob, FleetOrchestrator, PlacementPolicy
from repro.cluster.fleet import LATENCY_PERCENTILES, latency_percentiles_of
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
        orchestrator = FleetOrchestrator([], num_edge_servers=2)
        for report in (orchestrator._run_chain(),
                       orchestrator._run_recurrence()):
            assert report.num_cameras == 0
            assert report.makespan_seconds == 0.0
            assert report.aggregate_throughput_fps == 0.0
            assert report.total_frames == 0
            assert len(report.outcomes) == 0
            assert list(report.outcomes) == []
            assert report.outcomes.instants.shape == (5, 0)
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
            FleetOrchestrator(jobs, policy="sharpest-edge-first")

    @pytest.mark.parametrize("case", [
        {"num_edge_servers": float("nan")},
        {"num_edge_servers": float("inf")},
        {"num_edge_servers": 1.5},
        {"edge_workers": float("nan")},
        {"edge_workers": 2.5},
        {"cloud_workers": float("nan")},
        {"cloud_workers": 1.5},
        {"num_frames": float("nan")},
        {"num_frames": 2.5},
        {"frames_for_inference": float("nan")},
        {"frames_for_inference": 2.5},
    ], ids=lambda case: "-".join(f"{k}={v}" for k, v in case.items()))
    def test_bad_counts_raise_the_typed_error(self, case):
        """Regression: nan counts escaped as a bare ValueError (inf as an
        OverflowError) out of ``int()``, fractional ones were silently
        truncated (1.5 edges ran as 1), and a nan frame count poisoned
        ``total_frames`` and ``throughput_fps``."""
        (name, value), = case.items()
        with pytest.raises(ClusterError):
            if name in ("num_frames", "frames_for_inference"):
                make_job("cam", **{"num_frames" if name == "num_frames"
                                   else "samples": value})
            else:
                FleetOrchestrator([make_job("cam")], **{name: value})

    @pytest.mark.parametrize("field", [
        "num_frames", "frames_for_inference", "edge_seconds",
        "cloud_seconds", "camera_edge_bytes", "edge_cloud_bytes"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "1",
                                       None, [1]],
                             ids=repr)
    def test_non_numeric_job_fields_raise_the_typed_error(self, field,
                                                          value):
        """Regression: ``True`` ran as one frame, second or byte, and a
        string or ``None`` died as a bare TypeError in a comparison."""
        fields = dict(camera="cam", video="cam", num_frames=3,
                      frames_for_inference=1, edge_seconds=1.0,
                      cloud_seconds=0.5, camera_edge_bytes=10,
                      edge_cloud_bytes=5)
        with pytest.raises(ClusterError):
            CameraJob(**{**fields, field: value})

    def test_numpy_job_fields_are_stored_as_python_numbers(self):
        """Regression: ``np.float64(3.0)`` frames were kept as a float, so
        ``total_frames`` came out a ``numpy.float64``."""
        job = CameraJob(camera="cam", video="cam",
                        num_frames=np.float64(3.0),
                        frames_for_inference=np.int64(2),
                        edge_seconds=np.float32(0.5), cloud_seconds=1,
                        camera_edge_bytes=np.float64(1e6),
                        edge_cloud_bytes=np.uint32(5))
        assert [type(value) for value in (
            job.num_frames, job.frames_for_inference, job.edge_seconds,
            job.cloud_seconds, job.camera_edge_bytes,
            job.edge_cloud_bytes)] == [int, int, float, float, int, int]
        assert (job.num_frames, job.edge_seconds,
                job.camera_edge_bytes) == (3, 0.5, 1_000_000)
        for report in (FleetOrchestrator([job]).run(),
                       FleetOrchestrator([job])._run_chain()):
            assert type(report.total_frames) is int
            assert type(report.frames_for_inference) is int
            assert type(report.camera_edge_bytes) is int
            assert report.total_frames == 3

    @pytest.mark.parametrize("name", ["num_edge_servers", "edge_workers",
                                      "cloud_workers",
                                      "arrival_jitter_seconds"])
    @pytest.mark.parametrize("value", [True, np.bool_(True), "2"],
                             ids=repr)
    def test_bool_and_text_settings_raise_the_typed_error(self, name,
                                                          value):
        """Regression: ``True`` edges, workers or jitter ran as 1, and a
        string died as a bare TypeError."""
        with pytest.raises(ClusterError):
            FleetOrchestrator([make_job("cam")], **{name: value})

    @pytest.mark.parametrize("seed", ["x", 1.5, 2.0, True, [1]], ids=repr)
    def test_a_non_integer_seed_is_refused_at_construction(self, seed):
        """Regression: ``seed="x"`` with jitter was accepted here and died
        inside ``run()`` as a bare ValueError from ``int()``."""
        with pytest.raises(ClusterError):
            FleetOrchestrator([make_job("cam")], arrival_jitter_seconds=1.0,
                              seed=seed)

    @pytest.mark.parametrize("seed", [None, 0, 7, np.int64(7)], ids=repr)
    def test_integer_seeds_stay_legal(self, seed):
        report = FleetOrchestrator([make_job("cam")],
                                   arrival_jitter_seconds=1.0,
                                   seed=seed).run()
        assert report.cloud_tier.completed == 1

    def test_whole_valued_float_counts_stay_legal(self):
        orchestrator = FleetOrchestrator([make_job("cam", num_frames=300.0)],
                                         num_edge_servers=2.0,
                                         edge_workers=1.0, cloud_workers=3.0)
        assert (orchestrator.num_edge_servers, orchestrator.edge_workers,
                orchestrator.cloud_workers) == (2, 1, 3)

    def test_fleet_workers_setting_is_gone(self):
        """The sharded fleet is gone, and so is the knob that chose it."""
        with pytest.raises(TypeError):
            FleetOrchestrator([make_job("cam")], fleet_workers=2)
        with pytest.raises(TypeError):
            SystemConfig(fleet_workers=2)

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
        """Byte counts are whole bytes below 2**63: a fraction has no
        meaning on a link and the result stores keep them as int64."""
        with pytest.raises(ClusterError):
            make_job("cam", **{field: value})

    def test_whole_valued_float_byte_counts_stay_legal(self):
        jobs = [make_job(f"cam-{index}", camera_edge_bytes=1e6 + index,
                         edge_cloud_bytes=2.5e5) for index in range(8)]
        orchestrator = FleetOrchestrator(jobs, num_edge_servers=2)
        report = orchestrator.run()
        assert report.camera_edge_bytes == sum(
            int(job.camera_edge_bytes) for job in jobs)
        assert orchestrator._run_chain().parity_mismatches(report, 0.0) == []

    def test_parity_treats_equal_infinities_as_equal(self):
        """Regression: a zero-cost fleet has makespan 0 and throughput
        inf, and ``abs(inf - inf)`` is nan, so a report used to differ
        from itself on ``throughput_fps``."""
        job = make_job("cam", edge_seconds=0.0, cloud_seconds=0.0,
                       camera_edge_bytes=0, edge_cloud_bytes=0)
        config = SystemConfig(camera_edge_latency_ms=0.0,
                              edge_cloud_latency_ms=0.0)
        report = FleetOrchestrator([job], config=config).run()
        assert report.as_dict()["throughput_fps"] == math.inf
        assert report.parity_mismatches(report, tolerance=0.0) == []
        other = FleetOrchestrator([job]).run()
        assert report.parity_mismatches(other, tolerance=0.0) != []

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
            reports = {count: FleetOrchestrator(jobs, num_edge_servers=count,
                                                policy=policy).run()
                       for count in (1, 2, 4, 8)}
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


class TestOutcomeRecord:
    """``report.outcomes`` is one columnar record; rows are built on demand."""

    @pytest.mark.parametrize("runner", ["run", "_run_chain"])
    def test_rows_read_the_columns(self, runner):
        jobs = make_fleet_jobs(9)
        report = getattr(FleetOrchestrator(
            jobs, num_edge_servers=3, arrival_jitter_seconds=1.0,
            seed=3), runner)()
        record = report.outcomes
        rows = list(record)
        assert len(record) == len(rows) == 9
        assert [row.job for row in rows] == jobs
        assert [row.edge_index for row in rows] == record.edges.tolist()
        assert [row.start_seconds for row in rows] == record.ingest.tolist()
        assert [row.end_seconds for row in rows] == record.cloud_end.tolist()
        assert rows[-1] == record[-1] and rows[4] == record[4]
        assert all(row.latency_seconds == row.end_seconds - row.start_seconds
                   for row in rows)
        assert report.assignments == {
            row.job.camera: row.edge_index for row in rows}

    @pytest.mark.parametrize("runner", ["run", "_run_chain"])
    def test_every_stage_instant_follows_the_one_before(self, runner):
        report = getattr(FleetOrchestrator(
            make_fleet_jobs(12), num_edge_servers=2, edge_workers=2,
            arrival_jitter_seconds=2.0, seed=9), runner)()
        instants = report.outcomes.instants
        assert instants.shape == (5, 12) and instants.dtype == np.float64
        assert not np.isnan(instants).any()
        assert (np.diff(instants, axis=0) > 0).all()
        assert report.makespan_seconds == report.outcomes.cloud_end.max()

    def test_rows_are_copies(self):
        report = FleetOrchestrator(make_fleet_jobs(3)).run()
        with pytest.raises(AttributeError):
            report.outcomes[0].end_seconds = 0.0
        assert report.outcomes[0].end_seconds > 0.0


class TestLatencyPercentiles:
    """The report's percentiles come from one ``np.percentile`` call."""

    @settings(max_examples=300, deadline=None)
    @given(latencies=st.lists(
        st.one_of(st.floats(0.0, 1e6),
                  st.sampled_from((0.0, 0.5, 1.0, 1.0 + 2 ** -52, 3.0))),
        min_size=1, max_size=80))
    def test_one_call_equals_a_call_per_percentile(self, latencies):
        expected = {percentile: float(np.percentile(latencies, percentile))
                    for percentile in LATENCY_PERCENTILES}
        assert latency_percentiles_of(latencies) == expected
        assert latency_percentiles_of(np.array(latencies)) == expected
        assert all(type(value) is float
                   for value in latency_percentiles_of(latencies).values())

    @pytest.mark.parametrize("empty", [[], np.array([])], ids=repr)
    def test_an_empty_sample_is_nan_at_every_percentile(self, empty):
        percentiles = latency_percentiles_of(empty)
        assert list(percentiles) == list(LATENCY_PERCENTILES)
        assert all(math.isnan(value) for value in percentiles.values())


def assign_by_scan(orchestrator):
    """The placement ``assign()``'s heap replaced: a linear scan for the
    first least-loaded edge per camera, O(jobs x edges)."""
    if orchestrator.policy is PlacementPolicy.ROUND_ROBIN:
        return {job.camera: index % orchestrator.num_edge_servers
                for index, job in enumerate(orchestrator.jobs)}
    estimate = orchestrator._make_load_estimator()
    loads = [0.0] * orchestrator.num_edge_servers
    assignments = {}
    for job in orchestrator.jobs:
        target = min(range(orchestrator.num_edge_servers),
                     key=lambda i: loads[i])
        assignments[job.camera] = target
        loads[target] += estimate(job)
    return assignments


class TestAssignOracle:
    @settings(max_examples=200, deadline=None)
    @given(costs=st.lists(st.tuples(
               st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1e-300, 3.0]),
               st.sampled_from([0, 0, 125_000, 1_000_000])),
               max_size=40),
           num_edges=st.integers(1, 9),
           policy=st.sampled_from(list(PlacementPolicy)))
    def test_heap_equals_scan_under_tied_loads(self, costs, num_edges,
                                               policy):
        jobs = [make_job(f"cam-{index}", edge_seconds=seconds,
                         edge_cloud_bytes=size)
                for index, (seconds, size) in enumerate(costs)]
        orchestrator = FleetOrchestrator(jobs, num_edge_servers=num_edges,
                                         policy=policy)
        assert orchestrator.assign() == assign_by_scan(orchestrator)

    @pytest.mark.parametrize("policy", ["least-loaded", "bandwidth-aware"])
    def test_identical_jobs_fill_the_edges_in_index_order(self, policy):
        """Every load ties at every step: the first least-loaded edge wins,
        so identical cameras deal round-robin."""
        jobs = [make_job(f"cam-{index:02d}") for index in range(13)]
        orchestrator = FleetOrchestrator(jobs, num_edge_servers=4,
                                         policy=policy)
        assignments = orchestrator.assign()
        assert assignments == assign_by_scan(orchestrator)
        assert [assignments[job.camera] for job in jobs] == [
            index % 4 for index in range(13)]
