"""Tests for image operations and the MSE / SIFT change detectors."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.vision import (MseChangeDetector, SiftChangeDetector, SiftLite,
                          ThresholdSampler, downsample, gaussian_blur, gradients,
                          mean_squared_error, normalize_plane, resize,
                          sampled_fraction, score_video,
                          threshold_for_sampling_fraction, to_grayscale)


class TestImageOps:
    def test_to_grayscale_shapes(self, rng):
        gray = rng.integers(0, 255, size=(6, 7))
        color = rng.integers(0, 255, size=(6, 7, 3))
        assert to_grayscale(gray).shape == (6, 7)
        assert to_grayscale(color).shape == (6, 7)
        with pytest.raises(ConfigurationError):
            to_grayscale(np.zeros((2, 2, 2)))

    def test_resize_identity_and_scaling(self, rng):
        image = rng.integers(0, 255, size=(20, 30), dtype=np.uint8)
        assert np.array_equal(resize(image, (30, 20)), image)
        smaller = resize(image, (15, 10))
        assert smaller.shape == (10, 15)
        assert smaller.dtype == np.uint8

    def test_resize_preserves_constant(self):
        image = np.full((11, 17), 42.0)
        assert np.allclose(resize(image, (40, 23)), 42.0)

    def test_gaussian_blur_preserves_mean(self, rng):
        plane = rng.uniform(0, 255, size=(32, 32))
        blurred = gaussian_blur(plane, 1.5)
        assert blurred.shape == plane.shape
        assert blurred.mean() == pytest.approx(plane.mean(), rel=0.02)
        assert blurred.std() < plane.std()

    def test_gradients_of_ramp(self):
        ramp = np.tile(np.arange(10.0), (8, 1))
        dy, dx = gradients(ramp)
        assert np.allclose(dx[:, 1:-1], 1.0)
        assert np.allclose(dy[1:-1, :], 0.0)

    def test_downsample_block_average(self):
        plane = np.arange(16.0).reshape(4, 4)
        small = downsample(plane, 2)
        assert small.shape == (2, 2)
        assert small[0, 0] == pytest.approx(plane[:2, :2].mean())

    def test_normalize_plane(self, rng):
        plane = rng.uniform(0, 255, size=(16, 16))
        normalized = normalize_plane(plane)
        assert normalized.mean() == pytest.approx(0.0, abs=1e-9)
        assert normalized.std() == pytest.approx(1.0, rel=1e-6)
        assert np.allclose(normalize_plane(np.full((4, 4), 7.0)), 0.0)

    def test_mse(self):
        assert mean_squared_error(np.zeros((3, 3)), np.full((3, 3), 2.0)) == 4.0
        with pytest.raises(ConfigurationError):
            mean_squared_error(np.zeros((2, 2)), np.zeros((3, 3)))


class TestMseDetector:
    def test_first_frame_scores_infinite(self):
        detector = MseChangeDetector()
        assert detector.score_next(np.zeros((8, 8))) == float("inf")
        assert detector.score_next(np.zeros((8, 8))) == 0.0

    def test_change_detected(self, rng):
        detector = MseChangeDetector()
        background = rng.uniform(60, 200, size=(20, 20))
        detector.score_next(background)
        modified = background.copy()
        modified[5:15, 5:15] += 80
        assert detector.score_next(modified) > 100.0

    def test_downsampling_variant(self, rng):
        detector = MseChangeDetector(downsample_factor=2)
        plane = rng.uniform(0, 255, size=(16, 16))
        detector.score_next(plane)
        assert detector.score_next(plane) == pytest.approx(0.0)

    def test_score_video_series(self, tiny_video):
        scores = score_video(MseChangeDetector(), tiny_video)
        assert len(scores) == tiny_video.metadata.num_frames
        assert scores[0] == float("inf")
        assert all(score >= 0 for score in scores[1:])


class TestSift:
    def test_keypoints_on_corner_pattern(self, rng):
        sift = SiftLite(contrast_threshold=2.0)
        plane = rng.uniform(90, 110, size=(64, 64))
        plane[20:44, 20:44] += 90.0
        keypoints = sift.detect(plane)
        assert keypoints, "a high-contrast square should yield keypoints"

    def test_descriptors_normalised(self, rng):
        sift = SiftLite(contrast_threshold=2.0)
        plane = rng.uniform(0, 255, size=(72, 72))
        features = sift.extract(plane)
        if features.num_keypoints == 0:
            pytest.skip("no keypoints on this random draw")
        norms = np.linalg.norm(features.descriptors, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)
        assert features.descriptors.shape[1] == 128

    def test_identical_frames_match_fully(self, rng):
        sift = SiftLite(contrast_threshold=2.0)
        plane = rng.uniform(0, 255, size=(72, 72))
        features = sift.extract(plane)
        if features.num_keypoints == 0:
            pytest.skip("no keypoints on this random draw")
        assert sift.match_fraction(features, features) > 0.9

    def test_detector_scores_change(self, rng):
        detector = SiftChangeDetector(SiftLite(contrast_threshold=2.0))
        background = rng.uniform(0, 255, size=(72, 72))
        assert detector.score_next(background) == float("inf")
        same = detector.score_next(background)
        different = detector.score_next(rng.uniform(0, 255, size=(72, 72)))
        assert different >= same

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            SiftLite(num_scales=2)
        with pytest.raises(ConfigurationError):
            SiftLite(ratio_threshold=0.0)


class TestThresholding:
    def test_sampler_always_keeps_first_frame(self):
        sampler = ThresholdSampler(threshold=10.0)
        assert sampler.sample([0.0, 1.0, 2.0]) == [0]

    def test_sampler_threshold_and_interval(self):
        scores = [float("inf"), 0.0, 20.0, 20.0, 0.0, 20.0]
        assert ThresholdSampler(10.0).sample(scores) == [0, 2, 3, 5]
        assert ThresholdSampler(10.0, min_interval=3).sample(scores) == [0, 3]

    def test_threshold_for_target_fraction(self):
        scores = [float("inf")] + [float(value) for value in range(1, 100)]
        threshold = threshold_for_sampling_fraction(scores, 0.10)
        assert sampled_fraction(scores, threshold) == pytest.approx(0.10, abs=0.02)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                              st.sampled_from([0.0, 1.0, 2.5, 7.0])),
                    min_size=1, max_size=40),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
           st.integers(min_value=1, max_value=4))
    @example([3.0] * 12, 0.5, 1)                       # all-equal scores
    @example([float("nan")] * 5, 0.4, 1)               # no finite candidate
    @example([float("inf"), 1.0, 1.0, 2.0, 2.0], 0.6, 1)   # tie between rates
    def test_threshold_search_equals_the_per_candidate_replay(
            self, scores, fraction, min_interval):
        """One sort + searchsorted picks the threshold the O(n²) loop picked."""
        finite = sorted({float(score) for score in scores if np.isfinite(score)})
        best_threshold, best_error = float("inf"), float("inf")
        for threshold in finite + [float("inf")]:
            sampler = ThresholdSampler(threshold=threshold,
                                       min_interval=min_interval)
            error = abs(len(sampler.sample(scores)) / len(scores) - fraction)
            if error < best_error:
                best_error, best_threshold = error, threshold
        chosen = threshold_for_sampling_fraction(scores, fraction, min_interval)
        assert type(chosen) is float
        assert chosen == best_threshold
        assert ThresholdSampler(chosen, min_interval).sample(scores) == \
            ThresholdSampler(best_threshold, min_interval).sample(scores)

    def test_threshold_search_rejects_an_empty_series(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            threshold_for_sampling_fraction([], 0.5)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False),
                    min_size=5, max_size=80),
           st.floats(min_value=0.05, max_value=1.0))
    def test_property_threshold_fraction_close(self, scores, fraction):
        scores = [float("inf")] + scores
        threshold = threshold_for_sampling_fraction(scores, fraction)
        achieved = sampled_fraction(scores, threshold)
        # The achieved rate is the closest achievable one; it never exceeds
        # sampling every frame and never drops below sampling just the first.
        assert 1.0 / len(scores) <= achieved <= 1.0
