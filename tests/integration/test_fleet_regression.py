"""Regression: the fleet scheduler reproduces the seed end-to-end results.

The seed's :class:`EndToEndSimulation` charged every stage serially; that
exact implementation is preserved as ``run_serial``.  The rewired ``run``
executes the same workloads through the discrete-event fleet simulator in
single-edge mode and must reproduce the seed's throughput/bytes outputs to
within floating-point reassociation (the PR's acceptance bound is 1e-6).
"""

import math

import pytest

from repro import SystemConfig
from repro.cluster import FleetOrchestrator
from repro.core import (ALL_DEPLOYMENT_MODES, DeploymentMode,
                        EndToEndSimulation, build_workload, plan_camera_job)
from repro.datasets import build_dataset
from repro.datasets.generator import DatasetInstance
from repro.datasets.registry import DatasetSpec
from repro.video import RESOLUTION_720P, SyntheticScene, make_scenario

TOLERANCE = 1e-6


@pytest.fixture(scope="module")
def workload():
    """One small labelled dataset, the regression pin's subject."""
    instance = build_dataset("jackson_square", duration_seconds=10,
                             render_scale=0.08)
    return build_workload(instance, config=SystemConfig())


@pytest.fixture(scope="module")
def simulation(workload):
    return EndToEndSimulation([workload], SystemConfig())


class TestSingleEngineParity:
    @pytest.mark.parametrize("mode", ALL_DEPLOYMENT_MODES,
                             ids=lambda mode: mode.name)
    def test_fleet_run_matches_seed_serial_run(self, simulation, mode):
        fleet = simulation.run(mode)
        seed = simulation.run_serial(mode)
        assert fleet.total_frames == seed.total_frames
        assert fleet.frames_for_inference == seed.frames_for_inference
        # Byte totals are integers and must match exactly.
        assert fleet.camera_edge_bytes == seed.camera_edge_bytes
        assert fleet.edge_cloud_bytes == seed.edge_cloud_bytes
        for attribute in ("edge_seconds", "cloud_seconds", "transfer_seconds",
                          "total_seconds", "throughput_fps"):
            assert getattr(fleet, attribute) == pytest.approx(
                getattr(seed, attribute), rel=TOLERANCE, abs=TOLERANCE), attribute
        if seed.accuracy is None:
            assert fleet.accuracy is None
        else:
            assert fleet.accuracy == pytest.approx(seed.accuracy, abs=TOLERANCE)

    @pytest.mark.parametrize("mode", ALL_DEPLOYMENT_MODES,
                             ids=lambda mode: mode.name)
    def test_per_video_breakdowns_match(self, simulation, workload, mode):
        fleet = simulation.run(mode).per_video[workload.name]
        seed = simulation.run_serial(mode).per_video[workload.name]
        assert fleet.keys() == seed.keys()
        for key in seed:
            if math.isnan(seed[key]):
                assert math.isnan(fleet[key])
            else:
                assert fleet[key] == pytest.approx(seed[key], rel=TOLERANCE,
                                                   abs=TOLERANCE), key

    def test_fleet_report_attached_and_consistent(self, simulation):
        report = simulation.run(DeploymentMode.IFRAME_EDGE_CLOUD_NN)
        assert report.fleet is not None
        assert report.fleet.num_edge_servers == 1
        assert report.fleet.edge_busy_seconds == pytest.approx(
            report.edge_seconds)
        assert report.fleet.cloud_busy_seconds == pytest.approx(
            report.cloud_seconds)
        assert report.fleet.edge_cloud_bytes == report.edge_cloud_bytes


class TestMultiEdgeInvariants:
    def test_multi_edge_keeps_figure4_metrics(self, workload):
        """Busy-time and byte totals are placement-invariant, so the Figure
        4/5 numbers survive sharding across a fleet unchanged."""
        mode = DeploymentMode.IFRAME_EDGE_CLOUD_NN
        workloads = [workload] * 4
        single = EndToEndSimulation(workloads, SystemConfig()).run(mode)
        fleet = EndToEndSimulation(workloads, SystemConfig(),
                                   num_edge_servers=3,
                                   placement="least-loaded").run(mode)
        assert fleet.throughput_fps == pytest.approx(single.throughput_fps,
                                                     rel=TOLERANCE)
        assert fleet.edge_cloud_bytes == single.edge_cloud_bytes
        assert fleet.fleet.num_edge_servers == 3
        # ... but the fleet drains the corpus in less virtual time.
        assert fleet.fleet.makespan_seconds < single.fleet.makespan_seconds

    def test_plan_matches_serial_breakdown(self, simulation, workload):
        """plan_camera_job is the single source of the per-stage charges."""
        for mode in ALL_DEPLOYMENT_MODES:
            job = plan_camera_job(workload, mode, simulation.cost_model)
            seed = simulation.run_serial(mode).per_video[workload.name]
            assert job.edge_seconds == pytest.approx(seed["edge_seconds"],
                                                     abs=TOLERANCE)
            assert job.cloud_seconds == pytest.approx(seed["cloud_seconds"],
                                                      abs=TOLERANCE)
            assert job.camera_edge_bytes == int(seed["camera_edge_bytes"])
            assert job.edge_cloud_bytes == int(seed["edge_cloud_bytes"])


class TestRecurrenceParity:
    """The fault-free recurrence equals the event loop exactly on the
    highway and fleet-scaling scenarios."""

    @pytest.fixture(scope="class")
    def highway_jobs(self, workload):
        """A small fleet-scaling-style fleet: Table I workload + highway,
        cycled over eight cameras."""
        spec = DatasetSpec(
            name="highway", objects=("car", "truck"),
            nominal_resolution=RESOLUTION_720P, fps=30.0,
            paper_duration_hours=4.0,
            description="fast vehicles crossing a highway overpass",
            has_labels=False)
        profile = make_scenario("highway", duration_seconds=8,
                                render_scale=0.06)
        instance = DatasetInstance(spec=spec, profile=profile,
                                   video=SyntheticScene(profile).video())
        highway = build_workload(instance, config=SystemConfig())
        workloads = [workload, highway]
        mode = DeploymentMode.IFRAME_EDGE_CLOUD_NN
        return [plan_camera_job(workloads[index % 2], mode,
                                camera=f"cam-{index:02d}")
                for index in range(8)]

    @pytest.mark.parametrize("num_edges", [1, 3, 4])
    def test_highway_fleet_recurrence_matches_chain(self, highway_jobs,
                                                    num_edges):
        orchestrator = FleetOrchestrator(highway_jobs,
                                         num_edge_servers=num_edges,
                                         policy="least-loaded")
        assert orchestrator._run_chain().parity_mismatches(
            orchestrator.run(), 0.0) == []

    def test_end_to_end_simulation_report_equals_the_chain(self, workload):
        """The deployment simulation's fleet report (the recurrence's) is
        the event loop's, on the same planned jobs and placement."""
        mode = DeploymentMode.IFRAME_EDGE_CLOUD_NN
        simulation = EndToEndSimulation([workload] * 4, SystemConfig(),
                                        num_edge_servers=2)
        report = simulation.run(mode)
        chain = FleetOrchestrator(
            simulation.plan_jobs(mode), num_edge_servers=2,
            config=simulation.config, policy=simulation.placement)._run_chain()
        assert chain.parity_mismatches(report.fleet, 0.0) == []
        assert report.edge_cloud_bytes == chain.edge_cloud_bytes


def make_night_instance() -> DatasetInstance:
    """The flickering low-light clip both sides of the night tests share.

    One constructor keeps the exact and fast builds on the *same* footage —
    two drifting copies would silently turn the fast-vs-exact comparison
    into a comparison across different clips.
    """
    spec = DatasetSpec(
        name="night", objects=("car", "person"),
        nominal_resolution=RESOLUTION_720P, fps=30.0,
        paper_duration_hours=4.0,
        description="flickering low-light intersection",
        has_labels=True)
    profile = make_scenario("night", duration_seconds=10, render_scale=0.08)
    return DatasetInstance(spec=spec, profile=profile,
                           video=SyntheticScene(profile).video())


class TestNightScenario:
    """The flickering low-light profile flows through the whole fleet path:
    serial == event loop == recurrence, and the scene-cut stage does not
    degenerate under sub-threshold flicker."""

    @pytest.fixture(scope="class")
    def night_workload(self):
        return build_workload(make_night_instance(), config=SystemConfig())

    def test_flicker_does_not_storm_iframes(self, night_workload):
        # The lamp flicker sits below the novel-pixel threshold: the
        # semantic encoding must select far fewer I-frames than frames,
        # but still at least one per genuine event.
        assert 0 < night_workload.num_semantic_iframes
        assert (night_workload.num_semantic_iframes
                < 0.3 * night_workload.num_frames)

    @pytest.mark.parametrize("mode", ALL_DEPLOYMENT_MODES,
                             ids=lambda mode: mode.name)
    def test_fleet_run_matches_seed_serial_run(self, night_workload, mode):
        simulation = EndToEndSimulation([night_workload], SystemConfig())
        fleet = simulation.run(mode)
        seed = simulation.run_serial(mode)
        assert fleet.total_frames == seed.total_frames
        assert fleet.edge_cloud_bytes == seed.edge_cloud_bytes
        assert fleet.throughput_fps == pytest.approx(seed.throughput_fps,
                                                     rel=TOLERANCE)

    def test_recurrence_parity(self, night_workload):
        mode = DeploymentMode.IFRAME_EDGE_CLOUD_NN
        jobs = [plan_camera_job(night_workload, mode,
                                camera=f"night-{index}")
                for index in range(4)]
        orchestrator = FleetOrchestrator(jobs, num_edge_servers=2)
        assert orchestrator._run_chain().parity_mismatches(
            orchestrator.run(), 0.0) == []
