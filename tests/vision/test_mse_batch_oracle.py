"""The batched MSE baseline against the per-frame body it replaced.

``oracle_scores`` is the body ``score_video(MseChangeDetector(), video)``
ran before it scored consecutive frames in batches: one
``mean_squared_error`` call per frame pair, whose body was
``float(np.mean((a - b) ** 2))``.  For 8-bit luma every partial
sum of squared differences is an integer below 2⁵³, so any order of
summation gives the same float64; for RGB luma the batch sums each frame's
squares in the order a lone pair's are summed.  Both are held to the oracle
at tolerance 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.vision.mse as mse_module
from repro.errors import ConfigurationError
from repro.video import RawVideo
from repro.vision import MseChangeDetector, mean_squared_error, score_video
from repro.vision.imageops import to_grayscale


def oracle_scores(video):
    scores, previous = [], None
    for frame in video.frames():
        plane = np.asarray(to_grayscale(frame.data), dtype=np.float64)
        scores.append(float("inf") if previous is None
                      else float(np.mean((previous - plane) ** 2)))
        previous = plane
    return scores


def assert_same_scores(actual, expected):
    assert len(actual) == len(expected)
    assert all(type(score) is float for score in actual)
    assert np.array(actual).tobytes() == np.array(expected).tobytes()


@st.composite
def _videos(draw):
    frames = draw(st.integers(1, 30))
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    colour = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    shape = (frames, height, width, 3) if colour else (frames, height, width)
    arrays = rng.integers(0, 256, size=shape, dtype=np.uint8)
    if draw(st.booleans()):
        arrays[1::2] = arrays[::2][:len(arrays[1::2])]  # static frames score 0
    return RawVideo.from_arrays("clip", list(arrays))


class TestBatchedMseMatchesPerFrame:
    @settings(max_examples=200, deadline=None)
    @given(_videos(), st.sampled_from((1, 500, mse_module._BATCH_ELEMENTS)))
    def test_scores_are_bit_identical(self, video, batch_elements):
        original = mse_module._BATCH_ELEMENTS
        mse_module._BATCH_ELEMENTS = batch_elements
        try:
            scores = score_video(MseChangeDetector(), video)
        finally:
            mse_module._BATCH_ELEMENTS = original
        assert_same_scores(scores, oracle_scores(video))

    def test_streaming_continues_a_batch(self):
        rng = np.random.default_rng(3)
        planes = [rng.uniform(0, 255, size=(9, 11)) for _ in range(6)]
        detector = MseChangeDetector()
        scores = detector.score_planes(planes[:4])
        scores += [detector.score_next(plane) for plane in planes[4:]]
        assert_same_scores(scores, [float("inf")] + [
            float(np.mean((a - b) ** 2)) for a, b in zip(planes, planes[1:])])

    def test_frame_size_change_rejected(self):
        with pytest.raises(ConfigurationError, match="shape mismatch"):
            MseChangeDetector().score_planes([np.zeros((4, 4)), np.zeros((4, 5))])

    def test_stacks_score_each_pair(self):
        rng = np.random.default_rng(4)
        first = rng.uniform(0, 255, size=(5, 7, 9))
        second = rng.uniform(0, 255, size=(5, 7, 9))
        errors = mean_squared_error(first, second)
        assert errors.tobytes() == np.array(
            [float(np.mean((a - b) ** 2)) for a, b in zip(first, second)]).tobytes()
        assert errors.tobytes() == np.array(
            [mean_squared_error(a, b) for a, b in zip(first, second)]).tobytes()
