"""Tests for the event-detection front end, deployment modes and the pipeline."""

import pytest

from repro.cluster import CostModel
from repro.codec import ActivityColumns, EncoderParameters
from repro.config import SystemConfig
from repro.core import (ALL_DEPLOYMENT_MODES, DeploymentMode, EndToEndSimulation,
                        VideoWorkload, build_workload, evaluate_sampling)
from repro.datasets import build_dataset
from repro.errors import PipelineError
from repro.video import RESOLUTION_400P, Resolution
from repro.vision import (MseChangeDetector, ThresholdSampler, score_video,
                          threshold_for_sampling_fraction)


class TestEventDetection:
    """The front end as it ships: SiEVE's I-frames from the placer over one
    analysis pass, the MSE baseline's samples from a threshold fitted to a
    sampling fraction; both scored by ``evaluate_sampling``."""

    @staticmethod
    def mse_samples(video, fraction):
        scores = score_video(MseChangeDetector(), video)
        threshold = threshold_for_sampling_fraction(scores, fraction)
        return ThresholdSampler(threshold).sample(scores)

    def test_sieve_detector_scores_well(self, tiny_timeline, tuned_parameters,
                                        tiny_activities):
        keyframes = ActivityColumns(tiny_activities).keyframe_indices(
            tuned_parameters)
        score = evaluate_sampling(tiny_timeline, keyframes)
        assert score.accuracy > 0.85
        assert 0.0 < score.sampling_fraction < 0.2
        assert CostModel().event_detection_fps("sieve", RESOLUTION_400P) > 1000

    def test_mse_detector_threshold_fitting(self, tiny_video):
        target = 0.05
        samples = self.mse_samples(tiny_video, target)
        assert abs(len(samples) / tiny_video.metadata.num_frames - target) < 0.05
        assert samples[0] == 0

    def test_sieve_sweep_monotone_sampling(self, tiny_activities, tiny_timeline):
        columns = ActivityColumns(tiny_activities)
        fractions = [
            evaluate_sampling(tiny_timeline, columns.keyframe_indices(
                EncoderParameters(gop_size=1000, scenecut_threshold=value)
            )).sampling_fraction
            for value in (0, 150, 250, 350)]
        assert fractions == sorted(fractions)

    def test_sieve_beats_mse_at_matched_sampling(self, tiny_video, tiny_timeline,
                                                 tuned_parameters,
                                                 tiny_activities):
        """The paper's core claim at the scale of the tiny fixture."""
        sieve = evaluate_sampling(tiny_timeline, ActivityColumns(
            tiny_activities).keyframe_indices(tuned_parameters))
        mse = evaluate_sampling(
            tiny_timeline, self.mse_samples(tiny_video, sieve.sampling_fraction))
        assert sieve.accuracy >= mse.accuracy - 0.02


class TestDeploymentService:
    def test_modes_metadata(self):
        assert DeploymentMode.IFRAME_EDGE_CLOUD_NN.uses_semantic_encoding
        assert not DeploymentMode.MSE_EDGE_CLOUD_NN.uses_semantic_encoding
        assert len(ALL_DEPLOYMENT_MODES) == 5
        assert len({mode.label for mode in ALL_DEPLOYMENT_MODES}) == 5


def synthetic_workload(name="wl", num_frames=3000, iframe_fraction=0.02,
                       resolution=Resolution(1920, 1080)):
    """Hand-built workload for deterministic pipeline arithmetic tests."""
    num_iframes = int(num_frames * iframe_fraction)
    semantic = list(range(0, num_frames, max(num_frames // num_iframes, 1)))
    mse = list(range(0, num_frames, max(num_frames // (num_iframes * 3), 1)))
    return VideoWorkload(
        name=name, num_frames=num_frames, nominal_resolution=resolution,
        semantic_bytes=12_000 * num_frames, default_bytes=10_000 * num_frames,
        semantic_iframe_bytes=400_000 * len(semantic),
        semantic_samples=semantic, mse_samples=mse,
        uniform_samples=list(range(0, num_frames, num_frames // len(semantic))),
        resized_frame_bytes=27_000, timeline=None)


class TestEndToEndSimulation:
    @pytest.fixture(scope="class")
    def reports(self):
        simulation = EndToEndSimulation([synthetic_workload()], SystemConfig())
        return simulation.run_all()

    def test_paper_ordering_of_deployments(self, reports):
        fps = {mode: report.throughput_fps for mode, report in reports.items()}
        three_tier = fps[DeploymentMode.IFRAME_EDGE_CLOUD_NN]
        # (1) the 3-tier deployment is the fastest overall;
        assert three_tier == max(fps.values())
        # (2) every semantic-encoding deployment beats uniform sampling and MSE.
        for semantic_mode in (DeploymentMode.IFRAME_EDGE_CLOUD_NN,
                              DeploymentMode.IFRAME_CLOUD_CLOUD_NN,
                              DeploymentMode.IFRAME_EDGE_EDGE_NN):
            assert fps[semantic_mode] > fps[DeploymentMode.UNIFORM_EDGE_CLOUD_NN]
            assert fps[semantic_mode] > fps[DeploymentMode.MSE_EDGE_CLOUD_NN]
        # (3) MSE is the slowest.
        assert fps[DeploymentMode.MSE_EDGE_CLOUD_NN] == min(fps.values())

    def test_data_transfer_shape(self, reports):
        three_tier = reports[DeploymentMode.IFRAME_EDGE_CLOUD_NN]
        cloud_only = reports[DeploymentMode.IFRAME_CLOUD_CLOUD_NN]
        mse = reports[DeploymentMode.MSE_EDGE_CLOUD_NN]
        uniform = reports[DeploymentMode.UNIFORM_EDGE_CLOUD_NN]
        # Shipping only resized I-frames moves far fewer bytes than the video.
        assert cloud_only.edge_cloud_bytes > 5 * three_tier.edge_cloud_bytes
        # The MSE filter passes more frames, hence more bytes.
        assert mse.edge_cloud_bytes > 1.5 * three_tier.edge_cloud_bytes
        # The semantic encoding is somewhat larger camera->edge.
        assert three_tier.camera_edge_bytes > uniform.camera_edge_bytes

    def test_report_accounting(self, reports):
        report = reports[DeploymentMode.IFRAME_EDGE_CLOUD_NN]
        assert report.total_frames == 3000
        assert report.frames_for_inference == len(synthetic_workload().semantic_samples)
        assert report.total_seconds == pytest.approx(
            report.edge_seconds + report.cloud_seconds + report.transfer_seconds)
        flat = report.as_dict()
        assert flat["throughput_fps"] == pytest.approx(report.throughput_fps)

    def test_corpus_size_sweep(self):
        workloads = [synthetic_workload(f"wl{i}") for i in range(3)]
        simulation = EndToEndSimulation(workloads, SystemConfig())
        sweep = simulation.throughput_vs_corpus_size(
            DeploymentMode.IFRAME_EDGE_CLOUD_NN, [1, 3])
        assert sweep[3].total_frames == 3 * sweep[1].total_frames
        with pytest.raises(PipelineError):
            simulation.throughput_vs_corpus_size(DeploymentMode.IFRAME_EDGE_CLOUD_NN, [4])

    def test_empty_simulation_rejected(self):
        with pytest.raises(PipelineError):
            EndToEndSimulation([], SystemConfig())


class TestBuildWorkload:
    def test_build_workload_from_tiny_dataset(self):
        instance = build_dataset("jackson_square", duration_seconds=15,
                                 render_scale=0.08)
        workload = build_workload(instance)
        assert workload.num_frames == instance.video.metadata.num_frames
        assert workload.nominal_resolution == instance.spec.nominal_resolution
        assert workload.num_semantic_iframes >= 1
        assert workload.semantic_samples[0] == 0
        assert workload.semantic_bytes > workload.semantic_iframe_bytes
        assert len(workload.uniform_samples) >= workload.num_semantic_iframes
        # Uniform sampling: frame 0, then a fixed stride.
        assert workload.uniform_samples[0] == 0
        assert len({later - earlier for earlier, later in zip(
            workload.uniform_samples, workload.uniform_samples[1:])}) == 1
        assert workload.samples_for(DeploymentMode.MSE_EDGE_CLOUD_NN) == \
            workload.mse_samples
