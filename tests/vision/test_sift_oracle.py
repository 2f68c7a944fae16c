"""The SIFT baseline's array program against the per-keypoint bodies it
replaced (``sift_oracle.py``).

The blur's summation order changed (two matrix products instead of one
``np.convolve`` per row and per column), so it is held to the oracle at
atol 1e-9.  Given the same scale stack, detection and description are
exact: the same keypoints in the same order, with bit-identical
descriptors.  Matching reads distances from a squared-distance matrix,
so the change-score series are compared whole, on the anchored clips.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sift_oracle import FrameFeatures, OracleSift, gaussian_blur as oracle_blur
from repro.errors import ConfigurationError
from repro.video.scenarios import make_scenario
from repro.video.synthetic import SyntheticScene
from repro.vision import (SiftChangeDetector, gaussian_blur, score_video,
                          to_grayscale)
from repro.vision.imageops import _blur_matrix
from repro.vision.sift import (_SIGMAS, _descriptors, _keypoints, _matched,
                               _scale_stack)

#: The anchored clips of ``tests/integration/test_scenario_anchors.py``.
ANCHORED = ("amsterdam", "coral_reef", "drifting", "highway",
            "jackson_square", "night", "taipei", "venice")

planes = st.tuples(st.integers(1, 24), st.integers(1, 24),
                   st.integers(0, 2 ** 16))


def random_plane(height, width, seed):
    return np.random.default_rng(seed).uniform(0, 255, size=(height, width))


def textured_plane(height, width, seed):
    """Noise under a bright square: extrema at the corners and in the
    noise, some of them next to the border margin."""
    plane = np.random.default_rng(seed).uniform(60, 190, size=(height, width))
    plane[height // 4:3 * height // 4, width // 4:3 * width // 4] += 60.0
    return plane


class TestBlur:
    @settings(max_examples=120, deadline=None)
    @given(plane=planes, sigma=st.one_of(st.sampled_from(_SIGMAS),
                                         st.floats(0.2, 5.0)))
    @example(plane=(1, 1, 0), sigma=2.4)     # one sample: the edge pads it
    @example(plane=(2, 3, 1), sigma=2.4)     # reflected again and again
    @example(plane=(7, 5, 2), sigma=1.2 * 2 ** 0.5)
    def test_two_matrix_products_equal_the_convolutions(self, plane, sigma):
        """Planes smaller than the kernel's radius included, where the
        mirror is reflected more than once."""
        plane = random_plane(*plane)
        assert np.allclose(gaussian_blur(plane, sigma),
                           oracle_blur(plane, sigma), rtol=0.0, atol=1e-9)

    def test_a_stack_blurs_plane_by_plane(self, rng):
        stack = rng.uniform(0, 255, size=(2, 3, 9, 13))
        blurred = gaussian_blur(stack, 1.6)
        assert blurred.shape == stack.shape
        for index in np.ndindex(stack.shape[:2]):
            assert np.allclose(blurred[index], oracle_blur(stack[index], 1.6),
                               rtol=0.0, atol=1e-9)

    def test_the_matrices_are_cached_and_read_only(self):
        matrix = _blur_matrix(11, 1.7)
        assert _blur_matrix(11, 1.7) is matrix
        assert not matrix.flags.writeable
        assert np.allclose(matrix.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(5,), (0, 4), (3, 0), (2, 0, 4)])
    def test_an_empty_or_1d_image_is_refused(self, shape):
        with pytest.raises(ConfigurationError, match="gaussian_blur"):
            gaussian_blur(np.zeros(shape), 1.0)


def oracle_keypoints(plane, stack):
    """The oracle's keypoints of ``plane``, detected on ``stack``."""
    oracle = OracleSift()
    oracle._scale_stack = lambda _: list(stack)
    return oracle, oracle.detect(plane)


class TestDetectionAndDescription:
    @settings(max_examples=40, deadline=None)
    @given(height=st.integers(12, 48), width=st.integers(12, 64),
           seed=st.integers(0, 2 ** 16), textured=st.booleans())
    @example(height=19, width=19, seed=0, textured=True)   # one inner sample
    @example(height=18, width=40, seed=1, textured=True)   # none: too short
    def test_keypoints_and_descriptors_are_exact(self, height, width, seed,
                                                 textured):
        plane = (textured_plane if textured else random_plane)(
            height, width, seed)
        stack = _scale_stack(plane)
        oracle, expected = oracle_keypoints(plane, stack)
        rows, cols, responses = _keypoints(stack)
        assert rows.tolist() == [keypoint.row for keypoint in expected]
        assert cols.tolist() == [keypoint.col for keypoint in expected]
        assert responses.tolist() == [keypoint.response
                                      for keypoint in expected]
        assert np.array_equal(_descriptors(plane, rows, cols),
                              oracle.describe(plane, expected))

    def test_the_strongest_two_hundred_keep_the_oracles_tie_order(self):
        """A stripe pattern repeats one response at many samples, on every
        level: which of the tied extrema survive the cut is the order."""
        plane = np.tile(np.repeat([40.0, 200.0], 2), (64, 24))
        stack = _scale_stack(plane)
        _, expected = oracle_keypoints(plane, stack)
        rows, cols, _ = _keypoints(stack)
        assert len(expected) == 200
        assert list(zip(rows.tolist(), cols.tolist())) == [
            (keypoint.row, keypoint.col) for keypoint in expected]


class TestMatching:
    @settings(max_examples=60, deadline=None)
    @given(first=st.integers(1, 8), second=st.integers(1, 8),
           seed=st.integers(0, 2 ** 16),
           noise=st.sampled_from([0.0, 0.02, 0.2]), twice=st.booleans())
    @example(first=3, second=1, seed=0, noise=0.02, twice=False)  # the 0.7 rule
    @example(first=2, second=3, seed=0, noise=0.0, twice=True)    # distance 0, twice
    def test_the_ratio_test_matches_the_loop(self, first, second, seed, noise,
                                             twice):
        """Some of the second frame's descriptors are near copies of the
        first's, so some matches pass; with ``twice`` the second frame
        holds one of them twice, as two DoG levels' keypoints at one
        sample do."""
        rng = np.random.default_rng(seed)
        features = []
        for count in (first, second):
            descriptors = rng.uniform(0, 1, size=(count, 128)) ** 4
            descriptors /= np.linalg.norm(descriptors, axis=1, keepdims=True)
            features.append(descriptors)
        shared = min(first, second)
        features[1][:shared] = features[0][:shared] + rng.normal(
            0, noise, size=(shared, 128))
        if twice and second > 1:
            features[1][-1] = features[1][0]
        expected = OracleSift().match(
            *(FrameFeatures([None] * len(d), d) for d in features))
        assert _matched(*features) == len(expected)


@pytest.fixture(scope="module", params=ANCHORED)
def anchored_clip(request):
    return SyntheticScene(make_scenario(
        request.param, duration_seconds=4.0, render_scale=0.05)).video()


def test_score_series_equal_the_oracles_on_the_anchored_clips(anchored_clip):
    scores = score_video(SiftChangeDetector(), anchored_clip)
    oracle = OracleSift()
    assert scores == [oracle.score_next(to_grayscale(frame.data))
                      for frame in anchored_clip.frames()]
