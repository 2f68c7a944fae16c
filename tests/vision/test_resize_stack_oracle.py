"""The stacked, planned resize — and the NN preprocessing built on it —
against the per-frame loop it replaced.

``loop_resize`` is the body ``vision/imageops.py::resize`` carried before
same-shaped frames were resized as one stack from a cached sampling plan
(per call: two ``linspace``, four ``np.ix_`` gathers, four transposes);
``loop_preprocess_frame`` is the one-frame preprocessing ``nn/yolo_lite.py``
carried on top of it.  They live here as the oracle.  The tensors feed the NN whose
probabilities the benchmark's golden digests cover, so results are compared
on ``.tobytes()`` (dtype and shape included).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.nn import build_yolo_lite, classify_frames, preprocess_frames
from repro.vision import normalize_plane, resize_stack, to_grayscale
from repro.vision.imageops import _resize_plan


def resize(image, size):
    """:func:`resize_stack` on one image."""
    return resize_stack(np.asarray(image)[None], size)[0]


# --------------------------------------------------------------------- #
# The oracle: one frame at a time, verbatim in behaviour
# --------------------------------------------------------------------- #
def loop_resize(image, size):
    width, height = size
    source = np.asarray(image)
    src_h, src_w = source.shape[:2]
    if (src_w, src_h) == (width, height):
        return source.copy()
    row_positions = np.linspace(0, src_h - 1, height)
    col_positions = np.linspace(0, src_w - 1, width)
    row_low = np.floor(row_positions).astype(int)
    col_low = np.floor(col_positions).astype(int)
    row_high = np.minimum(row_low + 1, src_h - 1)
    col_high = np.minimum(col_low + 1, src_w - 1)
    row_frac = (row_positions - row_low)
    col_frac = (col_positions - col_low)
    working = source.astype(np.float64)

    def gather(rows, cols):
        return working[np.ix_(rows, cols)]

    top = (gather(row_low, col_low).T * (1 - col_frac[:, None])
           + gather(row_low, col_high).T * col_frac[:, None]).T
    bottom = (gather(row_high, col_low).T * (1 - col_frac[:, None])
              + gather(row_high, col_high).T * col_frac[:, None]).T
    resized = top * (1 - row_frac)[:, None] + bottom * row_frac[:, None]
    if np.issubdtype(source.dtype, np.integer):
        return np.clip(np.round(resized), 0, 255).astype(source.dtype)
    return resized


def loop_preprocess_frame(frame_data, input_size):
    height, width = input_size
    luma = to_grayscale(frame_data)
    resized = loop_resize(luma, (width, height))
    return normalize_plane(resized)[None, :, :]


def same_bits(result, expected):
    return (result.dtype == expected.dtype and result.shape == expected.shape
            and result.tobytes() == expected.tobytes())


def random_frames(rng, count, shape, dtype):
    values = rng.uniform(0, 255, size=(count,) + shape)
    return values.astype(dtype)


shapes = st.tuples(st.integers(1, 40), st.integers(1, 40))
sizes = st.tuples(st.integers(1, 33), st.integers(1, 33))
dtypes = st.sampled_from([np.uint8, np.float64, np.int32, np.float32])


# --------------------------------------------------------------------- #
# resize / resize_stack
# --------------------------------------------------------------------- #
class TestResizeStack:
    @settings(max_examples=80, deadline=None)
    @given(shape=shapes, size=sizes, dtype=dtypes, count=st.integers(1, 4),
           seed=st.integers(0, 2 ** 16))
    def test_stack_equals_the_per_image_loop(self, shape, size, dtype, count,
                                             seed):
        """Up- and down-scaling, one-pixel sources and targets, integer
        (rounded) and float planes."""
        rng = np.random.default_rng(seed)
        stack = random_frames(rng, count, shape, dtype)
        before = stack.copy()
        resized = resize_stack(stack, size)
        assert resized.shape[0] == count
        for image, result in zip(stack, resized):
            assert same_bits(result, loop_resize(image, size))
            assert same_bits(resize(image, size), result)
        assert same_bits(stack, before)

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, size=sizes, dtype=dtypes, count=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16))
    def test_colour_images_resize_channel_by_channel(self, shape, size, dtype,
                                                     count, seed):
        """The loop is no oracle here: it applied the row weights along
        whichever axis broadcasting found (the columns of a square target,
        a ``ValueError`` otherwise).  A channel axis just rides along."""
        rng = np.random.default_rng(seed)
        stack = random_frames(rng, count, shape + (3,), dtype)
        resized = resize_stack(stack, size)
        assert resized.shape == (count, size[1], size[0], 3)
        for image, result in zip(stack, resized):
            assert same_bits(resize(image, size), result)
            for channel in range(3):
                assert same_bits(
                    np.ascontiguousarray(result[:, :, channel]),
                    loop_resize(image[:, :, channel], size))

    def test_same_size_returns_a_copy(self):
        stack = random_frames(np.random.default_rng(0), 3, (7, 9), np.uint8)
        result = resize_stack(stack, (9, 7))
        assert same_bits(result, stack) and not np.shares_memory(result, stack)
        image = resize(stack[0], (9, 7))
        assert same_bits(image, stack[0]) and not np.shares_memory(image, stack)

    def test_strong_downscale_reads_only_the_rows_it_needs(self):
        """200 source rows, 3 target rows: the plan selects at most 6."""
        rows = _resize_plan(200, 50, 3, 20)[0]
        assert rows.size <= 6
        image = random_frames(np.random.default_rng(1), 1, (200, 50),
                              np.float64)[0]
        assert same_bits(resize(image, (20, 3)), loop_resize(image, (20, 3)))

    def test_plan_is_cached_and_read_only(self):
        _resize_plan.cache_clear()
        stack = random_frames(np.random.default_rng(2), 2, (11, 13), np.float64)
        first = resize_stack(stack, (5, 6))
        assert _resize_plan.cache_info().misses == 1
        assert same_bits(resize_stack(stack, (5, 6)), first)
        info = _resize_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        for array in _resize_plan(11, 13, 6, 5):
            assert not array.flags.writeable

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (0, 5, 3)])
    def test_empty_source_is_a_configuration_error(self, shape):
        with pytest.raises(ConfigurationError, match="empty"):
            resize(np.zeros(shape), (4, 4))
        with pytest.raises(ConfigurationError, match="empty"):
            resize_stack(np.zeros((2,) + shape), (4, 4))

    def test_bad_arguments(self):
        image = np.zeros((4, 4))
        for size in ((0, 3), (3, 0), (-1, 2)):
            with pytest.raises(ConfigurationError, match="target size"):
                resize(image, size)
        with pytest.raises(ConfigurationError, match="images"):
            resize(np.zeros(4), (2, 2))
        with pytest.raises(ConfigurationError, match="images"):
            resize_stack(np.zeros((2, 3, 4, 5, 6)), (2, 2))


# --------------------------------------------------------------------- #
# preprocess_frames
# --------------------------------------------------------------------- #
class TestPreprocessFrames:
    @settings(max_examples=40, deadline=None)
    @given(frame_shapes=st.lists(st.tuples(shapes, st.booleans()), min_size=1,
                                 max_size=6),
           input_size=st.sampled_from([(16, 16), (16, 24), (9, 5)]),
           dtype=st.sampled_from([np.uint8, np.float64]),
           seed=st.integers(0, 2 ** 16))
    def test_equal_and_mixed_shapes(self, frame_shapes, input_size, dtype, seed):
        """Frames of several shapes, grey and RGB, interleaved and repeated:
        every tensor lands at its own position."""
        rng = np.random.default_rng(seed)
        frame_shapes = frame_shapes + frame_shapes[:2]
        frames = [random_frames(rng, 1, shape + (3,) if colour else shape,
                                dtype)[0]
                  for shape, colour in frame_shapes]
        tensors = preprocess_frames(frames, input_size)
        assert tensors.shape == (len(frames), 1) + input_size
        expected = np.stack([loop_preprocess_frame(frame, input_size)
                             for frame in frames])
        assert same_bits(tensors, expected)
        for frame, tensor in zip(frames, tensors):
            assert same_bits(preprocess_frames([frame], input_size)[0], tensor)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_one_camera(self, dtype):
        """The online path's case: six frames of one shape."""
        frames = list(random_frames(np.random.default_rng(3), 6, (32, 48), dtype))
        assert same_bits(
            preprocess_frames(frames, (64, 64)),
            np.stack([loop_preprocess_frame(frame, (64, 64))
                      for frame in frames]))

    def test_source_already_at_input_size_and_constant_frames(self):
        rng = np.random.default_rng(4)
        frames = [random_frames(rng, 1, (16, 16), np.uint8)[0],
                  np.full((16, 16), 7, np.uint8),       # zero variance
                  random_frames(rng, 1, (16, 16, 3), np.uint8)[0]]
        assert same_bits(
            preprocess_frames(frames, (16, 16)),
            np.stack([loop_preprocess_frame(frame, (16, 16))
                      for frame in frames]))

    def test_no_frames(self):
        tensors = preprocess_frames([], (8, 12))
        assert tensors.shape == (0, 1, 8, 12) and tensors.dtype == np.float64

    def test_empty_frame_is_a_configuration_error(self):
        """Used to die with a bare ``IndexError`` inside ``resize``."""
        model = build_yolo_lite(input_size=(16, 16), width_multiplier=0.25)
        with pytest.raises(ConfigurationError, match="empty"):
            classify_frames(model, [np.zeros((0, 5))])
        with pytest.raises(ConfigurationError, match="empty"):
            preprocess_frames([np.zeros((4, 4)), np.zeros((3, 0, 3))], (16, 16))
        with pytest.raises(ConfigurationError, match="empty"):
            preprocess_frames([np.zeros((0, 0))], (16, 16))
