"""Integration tests: the Sieve facade and the paper's headline claims."""

import pytest

from repro import DeploymentMode, Sieve, SystemConfig
from repro.cluster import CostModel
from repro.codec import (ActivityColumns, EncodedVideo, EncoderParameters,
                         IFrameSeeker, VideoDecoder, VideoEncoder)
from repro.core import evaluate_sampling
from repro.datasets import build_dataset
from repro.errors import PipelineError
from repro.nn import OracleDetector
from repro.video import RESOLUTION_400P, SyntheticScene, make_scenario
from repro.vision import (MseChangeDetector, ThresholdSampler, score_video,
                          threshold_for_sampling_fraction)


class TestSieveFacade:
    @pytest.fixture(scope="class")
    def sieve_and_video(self, quick_scenario_video):
        sieve = Sieve()
        sieve.tune_camera("jackson_square", quick_scenario_video)
        return sieve, quick_scenario_video

    def test_tuning_stored_in_lookup_table(self, sieve_and_video):
        sieve, _ = sieve_and_video
        assert "jackson_square" in sieve.lookup_table
        parameters = sieve.parameters_for("jackson_square")
        assert parameters != sieve.parameters_for("unknown-camera")

    def test_analyze_video_labels_every_frame(self, sieve_and_video):
        sieve, video = sieve_and_video
        result = sieve.analyze_video(video, "jackson_square")
        assert len(result.frame_labels) == video.metadata.num_frames
        assert result.keyframe_indices[0] == 0
        assert result.score is not None and result.score.accuracy > 0.8
        # Per-frame labels agree with the propagation accuracy definition.
        truth = video.timeline.frame_labels()
        correct = sum(1 for observed, expected in zip(result.frame_labels, truth)
                      if observed == expected)
        assert correct / len(truth) == pytest.approx(result.score.accuracy)
        # Results were recorded in the result database, one row per segment.
        assert len(sieve.results.records_for_video("jackson_square")) == \
            len(result.keyframe_indices)

    @pytest.mark.parametrize("batch_size", [2.5, "4", float("nan"), True, 0])
    def test_detector_batch_size_is_a_whole_number(self, tiny_video, batch_size):
        """2.5, "4" and nan used to raise a bare TypeError, and True ran
        one-frame batches."""
        with pytest.raises(PipelineError, match="detector_batch_size"):
            Sieve().analyze_video(tiny_video, detector_batch_size=batch_size)

    def test_simulate_deployment_small(self):
        sieve = Sieve(SystemConfig())
        instances = [build_dataset("jackson_square", 15, 0.08),
                     build_dataset("coral_reef", 15, 0.08)]
        report = sieve.simulate_deployment(instances,
                                           DeploymentMode.IFRAME_EDGE_CLOUD_NN)
        assert report.total_frames == sum(i.video.metadata.num_frames
                                          for i in instances)
        assert report.throughput_fps > 0
        assert report.accuracy is not None and report.accuracy > 0.7


class TestPaperClaims:
    """End-to-end checks of the claims in the abstract, at reduced scale."""

    @pytest.fixture(scope="class")
    def tuned_setup(self):
        profile = make_scenario("jackson_square", duration_seconds=30,
                                render_scale=0.1)
        video = SyntheticScene(profile).video()
        sieve = Sieve()
        tuning = sieve.tune_camera("jackson_square", video)
        return video, tuning

    def test_high_accuracy_with_few_decoded_frames(self, tuned_setup):
        """"close to 100% object detection accuracy with decompressing only
        3.5% of the video frames" (abstract) — at clip scale we require >90 %
        accuracy below 6 % sampling."""
        video, tuning = tuned_setup
        best = tuning.best.score
        assert best.accuracy > 0.90
        # The paper reports ~3.5 % on multi-hour feeds; a 30-second clip has a
        # much higher event density, so the bound is proportionally looser.
        assert best.sampling_fraction < 0.08

    def test_event_detection_speedup_over_decode_baselines(self):
        """">100x speedup compared to classical approaches that decompress
        every video frame" — checked through the calibrated cost model."""
        model = CostModel()
        sieve_fps = model.event_detection_fps("sieve", RESOLUTION_400P)
        mse_fps = model.event_detection_fps("mse", RESOLUTION_400P)
        assert sieve_fps / mse_fps > 50

    def test_sieve_accuracy_dominates_mse_at_same_budget(self, tuned_setup):
        video, tuning = tuned_setup
        parameters = tuning.best_parameters
        keyframes = ActivityColumns(
            VideoEncoder(parameters).analyze(video)).keyframe_indices(parameters)
        sieve = evaluate_sampling(video.timeline, keyframes)
        scores = score_video(MseChangeDetector(), video)
        threshold = threshold_for_sampling_fraction(scores,
                                                    sieve.sampling_fraction)
        mse = evaluate_sampling(video.timeline,
                                ThresholdSampler(threshold).sample(scores))
        assert sieve.accuracy >= mse.accuracy - 0.02


class TestCodecPipelineIntegration:
    def test_encode_store_seek_decode_detect(self, quick_scenario_video):
        """The full edge path on real payloads: encode -> container ->
        seek -> still-image decode -> oracle labels."""
        parameters = EncoderParameters(gop_size=500, scenecut_threshold=250)
        encoded = VideoEncoder(parameters).encode(quick_scenario_video,
                                                  materialise_payload=True)
        data = encoded.serialize()

        _, _, stats = IFrameSeeker().seek_serialized(data)
        assert 0 < len(stats.keyframe_indices) / stats.frames_scanned < 0.2
        keyframes = list(EncodedVideo.deserialize(data).iter_keyframes())
        assert [keyframe.index for keyframe in keyframes] == \
            stats.keyframe_indices

        decoder = VideoDecoder()
        oracle = OracleDetector(quick_scenario_video.timeline)
        labelled = 0
        for keyframe in keyframes:
            pixels = decoder.decode_keyframe(keyframe)
            assert pixels.shape == quick_scenario_video.metadata.resolution.shape
            labels = oracle.detect(keyframe.index, pixels)
            assert labels == quick_scenario_video.timeline.labels_at(keyframe.index)
            labelled += 1
        assert labelled == len(stats.keyframe_indices)
