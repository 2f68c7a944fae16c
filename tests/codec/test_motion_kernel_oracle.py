"""The batched motion kernels against the per-candidate loops they replaced.

The functions prefixed ``loop_`` are the bodies ``codec/motion.py`` carried
before the search became one batched ``(c, H, W)`` candidate kernel and the
compensation one block gather.  They live here as the oracle.  The exact
search is under the bit-identity contract — every SAD feeds an argmin whose
tie-breaks decide motion vectors, frame sizes and the benchmark's golden
digests — so the comparison is on ``.tobytes()`` (dtype included), never on
``allclose``: the new kernel spells out numpy's summation order instead of
calling the same reduction, and this is what holds it to that order.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.codec.motion as motion_module
from repro.codec.blocks import from_blocks, pad_plane, to_blocks
from repro.codec.motion import (MotionField, MotionSearch, candidate_offsets,
                                estimate_motion, motion_compensate, pad_edge,
                                shift_plane)
from repro.errors import CodecError


# --------------------------------------------------------------------- #
# The oracle: the per-candidate loops, verbatim in behaviour
# --------------------------------------------------------------------- #
def loop_estimate_motion(reference, current, block_size, search_radius,
                         search_step=1):
    reference = np.asarray(reference, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    reference = pad_plane(reference, block_size)
    current = pad_plane(current, block_size)
    current_blocks = to_blocks(current, block_size)
    blocks_y, blocks_x = current_blocks.shape[:2]
    height, width = current.shape

    offsets = candidate_offsets(search_radius, search_step)
    padded = pad_edge(reference, search_radius)
    diff = np.empty((height, width))
    blocked = diff.reshape(blocks_y, block_size, blocks_x, block_size)
    sads = np.empty((len(offsets), blocks_y, blocks_x))
    for index, (dy, dx) in enumerate(offsets):
        shifted = padded[search_radius - dy:search_radius - dy + height,
                         search_radius - dx:search_radius - dx + width]
        np.subtract(shifted, current, out=diff)
        np.abs(diff, out=diff)
        sads[index] = blocked.sum(axis=(1, 3))
    best_index = sads.argmin(axis=0)
    best_sad = sads.min(axis=0)
    offset_table = np.asarray(offsets, dtype=np.int16)
    return MotionField(vectors=offset_table[best_index], block_sad=best_sad,
                       zero_sad=sads[0], block_size=block_size)


def loop_motion_compensate(reference, field, output_shape):
    reference = pad_plane(np.asarray(reference, dtype=np.float64),
                          field.block_size)
    blocks_y, blocks_x = field.vectors.shape[:2]
    prediction_blocks = np.empty((blocks_y, blocks_x, field.block_size,
                                  field.block_size))
    height, width = reference.shape
    unique_vectors = np.unique(field.vectors.reshape(-1, 2), axis=0)
    radius = int(np.abs(unique_vectors).max())
    padded = pad_edge(reference, radius)
    for dy, dx in unique_vectors:
        dy, dx = int(dy), int(dx)
        shifted = padded[radius - dy:radius - dy + height,
                         radius - dx:radius - dx + width]
        shifted_blocks = to_blocks(shifted, field.block_size)
        mask = np.all(field.vectors == (dy, dx), axis=2)
        prediction_blocks[mask] = shifted_blocks[mask]
    prediction = from_blocks(prediction_blocks)
    return prediction[:output_shape[0], :output_shape[1]]


def assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_field(actual, expected):
    assert_same_bytes(actual.vectors, expected.vectors)
    assert_same_bytes(actual.block_sad, expected.block_sad)
    assert_same_bytes(actual.zero_sad, expected.zero_sad)
    assert actual.block_size == expected.block_size


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
#: 4 runs numpy's short left-to-right loop, 8 the bare pairwise tree, 12 the
#: tree plus a tail, 16 two rounds of the eight accumulators.
BLOCK_SIZES = (4, 8, 12, 16)


@st.composite
def _plane_pairs(draw):
    """(reference, current, block_size, radius, step, batch_elements)."""
    block_size = draw(st.sampled_from(BLOCK_SIZES))
    height = draw(st.integers(1, 45))
    width = draw(st.integers(1, 45))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from(("raw", "reconstruction", "static", "flat")))
    if kind == "raw":
        # Integer-valued planes: what the analysis pass sees.
        reference = rng.integers(0, 256, size=(height, width)).astype(np.float64)
        current = rng.integers(0, 256, size=(height, width)).astype(np.float64)
    elif kind == "reconstruction":
        # Non-integer planes, where summation order shows in the last bit;
        # the current frame is a shifted reference, so vectors reach the
        # search radius at the frame border.
        reference = rng.uniform(0.0, 255.0, size=(height, width))
        shift = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        current = np.clip(shift_plane(reference, *shift)
                          + rng.normal(0.0, 2.0, size=(height, width)),
                          0.0, 255.0)
    elif kind == "static":
        reference = rng.uniform(0.0, 255.0, size=(height, width))
        current = reference.copy()
    else:
        # Every candidate ties on every block: the origin must win.
        reference = np.full((height, width), 127.25)
        current = np.full((height, width), 31.5)
    radius = draw(st.integers(0, 3))
    step = draw(st.integers(1, 2))
    # 1 puts every candidate in its own batch; the small budgets put a batch
    # boundary inside the candidate list; the module's own value is last.
    batch_elements = draw(st.sampled_from(
        (1, 600, 5000, motion_module._BATCH_ELEMENTS)))
    return reference, current, block_size, radius, step, batch_elements


class TestSearchMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(_plane_pairs())
    def test_fields_are_byte_identical(self, case):
        reference, current, block_size, radius, step, batch_elements = case
        original = motion_module._BATCH_ELEMENTS
        motion_module._BATCH_ELEMENTS = batch_elements
        try:
            field = estimate_motion(reference, current, block_size, radius,
                                    step)
        finally:
            motion_module._BATCH_ELEMENTS = original
        assert_same_field(field, loop_estimate_motion(
            reference, current, block_size, radius, step))

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_single_block_frame(self, block_size):
        """One block: numpy sums the contiguous b*b run in one go there,
        a different order from the row-by-row one of wider frames."""
        rng = np.random.default_rng(block_size)
        reference = rng.uniform(0.0, 255.0, size=(block_size, block_size))
        current = rng.uniform(0.0, 255.0, size=(block_size, block_size))
        field = estimate_motion(reference, current, block_size, 2)
        assert field.vectors.shape == (1, 1, 2)
        assert_same_field(field, loop_estimate_motion(reference, current,
                                                      block_size, 2))

    @pytest.mark.parametrize("shape", [(40, 8), (8, 40), (37, 5), (3, 50)])
    def test_one_block_wide_or_tall(self, shape):
        rng = np.random.default_rng(sum(shape))
        reference = rng.uniform(0.0, 255.0, size=shape)
        current = rng.uniform(0.0, 255.0, size=shape)
        assert_same_field(estimate_motion(reference, current, 8, 3),
                          loop_estimate_motion(reference, current, 8, 3))

    def test_exact_ties_resolve_to_origin_first(self):
        """Period-2 stripes: shifts of +-2 tie the origin exactly."""
        pattern = np.tile((np.arange(48) % 2) * 100.0, (40, 1))
        field = estimate_motion(pattern, pattern, 8, 2)
        assert not field.vectors.any()
        assert_same_field(field, loop_estimate_motion(pattern, pattern, 8, 2))

    def test_vectors_at_the_radius_on_the_frame_border(self):
        rng = np.random.default_rng(5)
        reference = rng.uniform(0.0, 255.0, size=(32, 48))
        current = shift_plane(reference, 3, -3)
        field = estimate_motion(reference, current, 8, 3)
        assert (np.abs(field.vectors) == 3).any()
        assert_same_field(field, loop_estimate_motion(reference, current, 8, 3))

    def test_uint8_input_and_bench_sized_planes(self):
        """The clip sizes the benchmark encodes (48x32, 102x58)."""
        rng = np.random.default_rng(9)
        for height, width in ((32, 48), (58, 102)):
            reference = rng.integers(0, 256, size=(height, width),
                                     dtype=np.uint8)
            current = np.roll(reference, (1, -2), axis=(0, 1))
            assert_same_field(
                estimate_motion(reference, current, 8, 2),
                loop_estimate_motion(reference, current, 8, 2))

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    def test_reused_search_equals_one_shot(self, precision):
        """An encoder keeps one MotionSearch for a whole video: its stack
        must follow a change of frame size, and no returned field may alias
        it (the next search would overwrite the previous result)."""
        search = MotionSearch(8, 2, precision=precision)
        rng = np.random.default_rng(11)
        fields, expected = [], []
        for shape in ((32, 48), (32, 48), (58, 102), (20, 20), (32, 48)):
            reference = rng.uniform(0.0, 255.0, size=shape)
            current = np.clip(shift_plane(reference, 1, -2)
                              + rng.normal(0.0, 2.0, size=shape), 0.0, 255.0)
            fields.append(search(reference, current))
            expected.append(estimate_motion(reference, current, 8, 2,
                                            precision=precision))
        for field, one_shot in zip(fields, expected):
            assert_same_field(field, one_shot)

    def test_shape_mismatch_still_rejected(self):
        for precision in ("exact", "fast"):
            with pytest.raises(CodecError):
                estimate_motion(np.zeros((8, 8)), np.zeros((8, 16)),
                                precision=precision)


@st.composite
def _fields(draw):
    """(reference, field, output_shape) with vectors in the decoder's range."""
    block_size = draw(st.sampled_from(BLOCK_SIZES))
    height = draw(st.integers(1, 40))
    width = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    reference = rng.uniform(0.0, 255.0, size=(height, width))
    blocks_y = -(-height // block_size)
    blocks_x = -(-width // block_size)
    # int8 payload range: far larger than the frame itself at these sizes.
    limit = draw(st.sampled_from((0, 1, 3, 127)))
    vectors = rng.integers(-limit, limit + 1, size=(blocks_y, blocks_x, 2)
                           ).astype(np.int16)
    if draw(st.booleans()):
        vectors[rng.random((blocks_y, blocks_x)) < 0.7] = 0
    zeros = np.zeros((blocks_y, blocks_x))
    return reference, MotionField(vectors, zeros, zeros, block_size), (height, width)


class TestCompensationMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(_fields())
    @example((np.arange(12.0).reshape(3, 4),
              MotionField(np.full((1, 1, 2), 127, dtype=np.int16),
                          np.zeros((1, 1)), np.zeros((1, 1)), 8), (3, 4)))
    @example((np.arange(12.0).reshape(3, 4),
              MotionField(np.full((1, 1, 2), -127, dtype=np.int16),
                          np.zeros((1, 1)), np.zeros((1, 1)), 4), (3, 4)))
    def test_predictions_are_byte_identical(self, case):
        reference, field, output_shape = case
        assert_same_bytes(motion_compensate(reference, field, output_shape),
                          loop_motion_compensate(reference, field, output_shape))

    def test_all_zero_field_predicts_the_reference(self):
        rng = np.random.default_rng(3)
        for shape in ((32, 48), (30, 45)):
            reference = rng.uniform(0.0, 255.0, size=shape)
            field = estimate_motion(reference, reference, 8, 2)
            assert not field.vectors.any()
            prediction = motion_compensate(reference, field, shape)
            assert_same_bytes(prediction,
                              loop_motion_compensate(reference, field, shape))
            assert np.array_equal(prediction, reference)

    def test_search_then_compensate_on_uint8_reference(self):
        rng = np.random.default_rng(4)
        reference = rng.integers(0, 256, size=(30, 45), dtype=np.uint8)
        current = np.roll(reference, (2, 1), axis=(0, 1))
        field = estimate_motion(reference, current, 8, 2)
        assert field.vectors.any()
        assert_same_bytes(
            motion_compensate(reference, field, current.shape),
            loop_motion_compensate(reference, field, current.shape))

    def test_field_shape_mismatch_still_rejected(self):
        field = MotionField(np.zeros((2, 2, 2), dtype=np.int16),
                            np.zeros((2, 2)), np.zeros((2, 2)), 8)
        with pytest.raises(CodecError):
            motion_compensate(np.zeros((8, 8)), field, (8, 8))
