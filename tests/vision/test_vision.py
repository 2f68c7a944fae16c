"""Tests for image operations and the MSE / SIFT change detectors."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from video_tools import video_from_arrays
from repro.errors import ConfigurationError
from repro.vision import (MseChangeDetector, SiftChangeDetector, SiftLite,
                          ThresholdSampler, gaussian_blur, gradients,
                          mean_squared_error, normalize_plane, resize_stack, score_video,
                          threshold_for_sampling_fraction, to_grayscale)


def sampled_fraction(scores, threshold):
    return len(ThresholdSampler(threshold).sample(scores)) / len(scores)


def resize(image, size):
    """:func:`resize_stack` on one image."""
    return resize_stack(np.asarray(image)[None], size)[0]


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

    def test_gaussian_blur_mirrors_the_border_without_repeating_it(self,
                                                                   rng):
        """Past the edge the blur reads ``c b | a b c`` (numpy's
        ``"reflect"``, not SciPy's, which repeats the edge sample): each
        sample is the kernel's weighted sum over mirrored indices, rows
        first, then columns."""
        plane = rng.uniform(0, 255, size=(9, 13))
        sigma, radius = 1.6, 5  # round(3 * 1.6) taps either side
        offsets = np.arange(-radius, radius + 1)
        taps = np.exp(-offsets ** 2 / (2.0 * sigma ** 2))
        taps /= taps.sum()

        def mirrored(index, size):
            if index < 0:
                return -index
            return 2 * (size - 1) - index if index >= size else index

        def blur_rows(values):
            height, width = values.shape
            return np.array([[sum(tap * values[y, mirrored(x + dx, width)]
                                  for tap, dx in zip(taps, offsets))
                              for x in range(width)] for y in range(height)])

        expected = blur_rows(blur_rows(plane).T).T
        assert np.allclose(gaussian_blur(plane, sigma), expected,
                           rtol=0.0, atol=1e-9)

    def test_gradients_of_ramp(self):
        ramp = np.tile(np.arange(10.0), (8, 1))
        dy, dx = gradients(ramp)
        assert np.allclose(dx[:, 1:-1], 1.0)
        assert np.allclose(dy[1:-1, :], 0.0)

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
        assert MseChangeDetector().score_planes(
            [np.zeros((8, 8))] * 2) == [float("inf"), 0.0]

    def test_change_detected(self, rng):
        background = rng.uniform(60, 200, size=(20, 20))
        modified = background.copy()
        modified[5:15, 5:15] += 80
        scores = MseChangeDetector().score_planes([background, modified])
        assert scores[1] > 100.0

    def test_score_video_series(self, tiny_video):
        scores = score_video(MseChangeDetector(), tiny_video)
        assert len(scores) == tiny_video.metadata.num_frames
        assert scores[0] == float("inf")
        assert all(score >= 0 for score in scores[1:])

    @pytest.mark.parametrize("detector", [MseChangeDetector(), SiftChangeDetector()],
                             ids=["mse", "sift"])
    def test_score_video_resets_the_detector(self, rng, detector):
        """A detector's stream state never leaks into the next video."""
        video = video_from_arrays("clip", [
            rng.integers(0, 255, size=(40, 40), dtype=np.uint8)
            for _ in range(4)], fps=10.0)
        first = score_video(detector, video)
        detector.score_planes([rng.uniform(0, 255, size=(40, 40))])
        assert score_video(detector, video) == first
        assert first[0] == float("inf")

    @pytest.mark.parametrize("plane", [
        np.zeros((4, 5, 3)), np.zeros(5), np.zeros((0, 5)),
        np.zeros((4, 5), dtype=complex), np.full((4, 5), "a"),
        np.zeros((4, 5), dtype=object)],
        ids=["colour", "1-D", "empty", "complex", "string", "object"])
    def test_only_real_2d_planes_are_scored(self, plane):
        good = np.zeros((4, 5))
        for planes in ([plane], [good, plane], [plane, good]):
            with pytest.raises(ConfigurationError, match="2-D planes"):
                MseChangeDetector().score_planes(planes)


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

    def test_sampler_threshold(self):
        scores = [float("inf"), 0.0, 20.0, 20.0, 0.0, 20.0, float("nan"), 10.0]
        assert ThresholdSampler(10.0).sample(scores) == [0, 2, 3, 5]

    def test_threshold_for_target_fraction(self):
        scores = [float("inf")] + [float(value) for value in range(1, 100)]
        threshold = threshold_for_sampling_fraction(scores, 0.10)
        assert sampled_fraction(scores, threshold) == pytest.approx(0.10, abs=0.02)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                              st.sampled_from([0.0, 1.0, 2.5, 7.0])),
                    min_size=1, max_size=40),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    @example([3.0] * 12, 0.5)                          # all-equal scores
    @example([float("nan")] * 5, 0.4)                  # no finite candidate
    @example([float("inf"), 1.0, 1.0, 2.0, 2.0], 0.6)  # tie between rates
    def test_threshold_search_equals_the_per_candidate_replay(
            self, scores, fraction):
        """One sort + searchsorted picks the threshold the O(n²) loop picked."""
        finite = sorted({float(score) for score in scores if np.isfinite(score)})
        best_threshold, best_error = float("inf"), float("inf")
        for threshold in finite + [float("inf")]:
            sampler = ThresholdSampler(threshold=threshold)
            error = abs(len(sampler.sample(scores)) / len(scores) - fraction)
            if error < best_error:
                best_error, best_threshold = error, threshold
        chosen = threshold_for_sampling_fraction(scores, fraction)
        assert type(chosen) is float
        assert chosen == best_threshold

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

    @pytest.mark.parametrize("threshold", [float("nan"), np.float64("nan"),
                                           True, np.bool_(False), "1", None,
                                           1 + 0j])
    def test_sampler_refuses_a_threshold_that_is_not_a_real_number(
            self, threshold):
        with pytest.raises(ConfigurationError, match="threshold must be"):
            ThresholdSampler(threshold)

    def test_infinite_thresholds_stay_legal(self):
        scores = [float("inf"), 1.0, float("inf"), 2.0]
        assert ThresholdSampler(float("inf")).sample(scores) == [0]
        assert ThresholdSampler(-np.inf).sample(scores) == [0, 1, 2, 3]
        assert ThresholdSampler(np.int64(1)).sample(scores) == [0, 2, 3]

    @pytest.mark.parametrize("fraction", [True, False, "0.5", None, 0.5 + 0j,
                                          float("nan")])
    def test_fraction_must_be_a_real_number(self, fraction):
        with pytest.raises(ConfigurationError, match="fraction must be"):
            threshold_for_sampling_fraction([float("inf"), 1.0, 2.0], fraction)
