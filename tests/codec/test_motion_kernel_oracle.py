"""The batched motion kernels against the bodies they replaced.

The functions prefixed ``loop_`` are the bodies ``codec/motion.py`` carried
before the search became one batched ``(c, H, W)`` candidate kernel and the
compensation one block gather.  They live here as the oracle of the
search, an integer screen that settles only near-ties in float64, and of
the compensation.  The exact search is under the bit-identity contract — every SAD
feeds an argmin whose tie-breaks decide motion vectors, frame sizes and the
benchmark's golden digests — so the comparison is on ``.tobytes()`` (dtype
included), never on ``allclose``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.codec.motion as motion_module
from repro.codec.blocks import from_blocks, pad_plane, to_blocks
from video_tools import shift_plane
from repro.codec.motion import (PLANE_MAX, MotionField, MotionSearch,
                                candidate_offsets, estimate_motion,
                                integer_block_sums, integer_sad_dtype,
                                motion_compensate)
from repro.errors import CodecError
from repro.video import SyntheticScene, make_scenario
from repro.video.frame import Frame
from repro.video.scenarios import SCENARIOS


# --------------------------------------------------------------------- #
# The oracle: the per-candidate loops, verbatim in behaviour
# --------------------------------------------------------------------- #
def pad_edge(plane, radius):
    """``np.pad(plane, radius, mode="edge")``, hand-rolled as the search's
    padding was before the searches gathered their rows directly."""
    if radius <= 0:
        return plane
    height, width = plane.shape
    padded = np.empty((height + 2 * radius, width + 2 * radius),
                      dtype=plane.dtype)
    padded[radius:height + radius, radius:width + radius] = plane
    padded[:radius, radius:width + radius] = plane[0]
    padded[height + radius:, radius:width + radius] = plane[-1]
    padded[:, :radius] = padded[:, radius:radius + 1]
    padded[:, width + radius:] = padded[:, width + radius - 1:width + radius]
    return padded


def loop_estimate_motion(reference, current, block_size, search_radius):
    reference = np.asarray(reference, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    reference = pad_plane(reference, block_size)
    current = pad_plane(current, block_size)
    current_blocks = to_blocks(current, block_size)
    blocks_y, blocks_x = current_blocks.shape[:2]
    height, width = current.shape

    offsets = candidate_offsets(search_radius)
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
    offset_table = np.asarray(offsets, dtype=np.int16)
    return MotionField(offset_table[sads.argmin(axis=0)], block_size)


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
    assert actual.block_size == expected.block_size


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
#: 4 runs numpy's short left-to-right loop, 8 the bare pairwise tree, 12 the
#: tree plus a tail, 16 two rounds of the eight accumulators.
BLOCK_SIZES = (4, 8, 12, 16)


@st.composite
def _plane_pairs(draw):
    """(reference, current, block_size, radius, batch_elements)."""
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
    # 1 puts every grid row of candidates in its own batch; the small
    # budgets put a batch boundary inside the grid; the module's own value
    # is last.
    batch_elements = draw(st.sampled_from(
        (1, 600, 5000, motion_module._SCREEN_BATCH_ELEMENTS)))
    return reference, current, block_size, radius, batch_elements


class TestSearchMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(_plane_pairs())
    def test_fields_are_byte_identical(self, case):
        reference, current, block_size, radius, batch_elements = case
        original = motion_module._SCREEN_BATCH_ELEMENTS
        motion_module._SCREEN_BATCH_ELEMENTS = batch_elements
        try:
            field = estimate_motion(reference, current, block_size, radius)
        finally:
            motion_module._SCREEN_BATCH_ELEMENTS = original
        assert_same_field(field, loop_estimate_motion(
            reference, current, block_size, radius))

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

    def test_reused_search_equals_one_shot(self):
        """An encoder keeps one MotionSearch for a whole video: its stack
        must follow a change of frame size, and no returned field may alias
        it (the next search would overwrite the previous result)."""
        search = MotionSearch(8, 2)
        rng = np.random.default_rng(11)
        fields, expected = [], []
        for shape in ((32, 48), (32, 48), (58, 102), (20, 20), (32, 48)):
            reference = rng.uniform(0.0, 255.0, size=shape)
            current = np.clip(shift_plane(reference, 1, -2)
                              + rng.normal(0.0, 2.0, size=shape), 0.0, 255.0)
            fields.append(search(reference, current))
            expected.append(estimate_motion(reference, current, 8, 2))
        for field, one_shot in zip(fields, expected):
            assert_same_field(field, one_shot)

    def test_shape_mismatch_still_rejected(self):
        with pytest.raises(CodecError):
            estimate_motion(np.zeros((8, 8)), np.zeros((8, 16)))


class TestScenarioFramesMatchTheLoop:
    """Every shipped scenario's footage: a mid-clip frame pair, searched
    on float planes, gives the seed loop's field byte for byte."""

    @pytest.mark.parametrize("radius", [2, 3])
    @pytest.mark.parametrize("name", sorted(
        name for name in SCENARIOS if "+" not in name))
    def test_fields_are_byte_identical(self, name, radius):
        profile = make_scenario(name, duration_seconds=2.0, render_scale=0.08)
        scene = SyntheticScene(profile)
        middle = profile.num_frames // 2
        reference, current = (scene.frame_array(index).astype(np.float64)
                              for index in (middle - 1, middle))
        assert_same_field(estimate_motion(reference, current, 8, radius),
                          loop_estimate_motion(reference, current, 8, radius))


# --------------------------------------------------------------------- #
# The screened exact search at its bound
# --------------------------------------------------------------------- #
#: 24 and 32 add blocks past the 2-byte accumulators and a tail-free
#: pairwise tree of four rounds.
SCREEN_BLOCK_SIZES = (4, 8, 12, 16, 24, 32)


def rounding_tie(block_size, blocks=2):
    """Planes on which the screen misjudges an exact tie by its full bound.

    Every value is a half-integer in units of ``2^-6`` (the fixed point of
    planes in ``[0, 255]``), so ``rint`` rounds each half to even.  Along a
    row the reference climbs 6 units a column and the current sits 3 units
    below it: the zero vector and ``dx = +1`` both miss by exactly 3 units a
    pixel, a tie the origin wins, while the screen scores them 4 and 2.  A
    bound of less than ``2 · b²`` units drops the origin from the running.
    """
    width = blocks * block_size
    columns = 12805.5 + 6.0 * np.arange(width)
    reference = np.tile(columns, (block_size, 1)) / 64.0
    return reference, reference - 3.0 / 64.0


@st.composite
def _screen_cases(draw):
    """(reference, current, block_size, radius) near the screen's
    bound: exact ties, flat planes, ties broken by an ulp or by less than
    the margin, non-integer reconstructions, one-block-wide frames."""
    block_size = draw(st.sampled_from(SCREEN_BLOCK_SIZES))
    height = draw(st.integers(1, 2 * block_size + 5))
    width = draw(st.one_of(st.integers(1, block_size),
                           st.integers(1, 3 * block_size + 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from(
        ("raw", "reconstruction", "flat", "stripes", "nudged", "rounding")))
    shift = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    if kind == "raw":
        reference = rng.integers(0, 256, size=(height, width)).astype(np.float64)
        current = np.roll(reference, shift, axis=(0, 1))
    elif kind == "reconstruction":
        reference = rng.uniform(0.0, 255.0, size=(height, width))
        current = np.clip(shift_plane(reference, *shift)
                          + rng.normal(0.0, draw(st.sampled_from((0.01, 2.0))),
                                       size=(height, width)), 0.0, 255.0)
    elif kind == "flat":
        reference = np.full((height, width), draw(st.sampled_from((0.0, 127.25))))
        current = np.full((height, width), draw(st.sampled_from((0.0, 31.5))))
    elif kind in ("stripes", "nudged"):
        # Periodic along x: shifts by the period tie away from the borders.
        period = draw(st.integers(1, 3))
        base = rng.uniform(0.0, 255.0, size=(height, period))
        reference = np.tile(base, (1, -(-width // period)))[:, :width]
        current = shift_plane(reference, *shift)
        if kind == "nudged":
            # Break the ties by one ulp, or by far less than the margin.
            nudged = rng.random((height, width)) < 0.3
            if draw(st.booleans()):
                current = np.where(nudged, np.nextafter(current, 256.0), current)
            else:
                current = current + nudged * draw(st.sampled_from((1e-9, 1e-3, 0.05)))
            current = np.minimum(current, 255.0)
    else:
        reference, current = rounding_tie(block_size, max(1, width // block_size))
        reference, current = reference[:height], current[:height]
    radius = draw(st.integers(0, 3))
    return reference, current, block_size, radius


def screened_tie(block_size, seed=0):
    """``rounding_tie``'s ramp in the middle block of three, between
    ``uint8`` texture blocks the current frame repeats.

    The ramp reaches one column into block 0, where ``dx = +1`` reads it,
    and matches there.  The screen decides both texture blocks on its own,
    so they add no candidate to what the settle sums: only a margin of
    ``2 · b²`` keeps the origin in the middle block's running, and without
    it the settle picks ``(-1, 1)``.
    """
    rng = np.random.default_rng(seed)
    reference = rng.integers(0, 256, size=(block_size, 3 * block_size)
                             ).astype(np.float64)
    current = reference.copy()
    ramp, below = rounding_tie(block_size, 3)
    reference[:, block_size - 1:] = current[:, block_size - 1:] = ramp[
        :, block_size - 1:]
    current[:, block_size:2 * block_size] = below[:, block_size:2 * block_size]
    reference[:, 2 * block_size:] = current[:, 2 * block_size:] = rng.integers(
        0, 256, size=(block_size, block_size))
    return reference, current


class TestScreenedSearchMatchesLoop:
    @settings(max_examples=400, deadline=None)
    @given(_screen_cases())
    @example((*rounding_tie(8), 8, 1))
    @example((*rounding_tie(16, 3), 16, 2))
    def test_fields_are_byte_identical(self, case):
        reference, current, block_size, radius = case
        assert_same_field(
            estimate_motion(reference, current, block_size, radius),
            loop_estimate_motion(reference, current, block_size, radius))

    @pytest.mark.parametrize("block_size", SCREEN_BLOCK_SIZES)
    def test_a_tie_misjudged_by_the_full_bound_is_settled(self, block_size):
        reference, current = rounding_tie(block_size)
        field = estimate_motion(reference, current, block_size, 1)
        assert not field.vectors.any()
        assert_same_field(field, loop_estimate_motion(reference, current,
                                                      block_size, 1))

    @pytest.mark.parametrize("block_size", (8, 16))
    def test_the_margin_holds_the_tie_alone(self, block_size):
        """The bound is tight: a margin one unit short of ``2 · b²`` loses
        the origin of the middle block to ``(-1, 1)``."""
        reference, current = screened_tie(block_size)
        field = estimate_motion(reference, current, block_size, 1)
        assert not field.vectors.any()
        assert_same_field(field, loop_estimate_motion(reference, current,
                                                      block_size, 1))

    def test_fields_alias_nothing(self):
        """Every field keeps the vectors of its own search after later
        searches reuse the screen's buffers."""
        rng = np.random.default_rng(12)
        search = MotionSearch(8, 2)
        pairs, fields = [], []
        for _ in range(3):
            reference = rng.uniform(0.0, 255.0, size=(30, 41))
            current = np.clip(shift_plane(reference, 1, 2)
                              + rng.normal(0.0, 1.0, size=(30, 41)), 0.0, 255.0)
            pairs.append((reference, current))
            fields.append(search(reference, current))
        for (reference, current), field in zip(pairs, fields):
            expected = loop_estimate_motion(reference, current, 8, 2)
            assert_same_field(field, expected)

    def test_values_below_the_fixed_point(self):
        """Planes the fixed point rounds to a few units, or to zero: the
        screen ties most candidates and the settle decides them."""
        rng = np.random.default_rng(13)
        base = rng.uniform(0.0, 1.0, size=(20, 28))
        moved = np.clip(shift_plane(base, 1, 1)
                        + rng.normal(0.0, 0.01, size=(20, 28)), 0.0, 1.0)
        for scale in (1e-300, 1e-6, 1.0, 255.0):
            assert_same_field(estimate_motion(base * scale, moved * scale, 8, 2),
                              loop_estimate_motion(base * scale, moved * scale,
                                                   8, 2))

    def test_planes_up_to_plane_max_are_searched(self):
        """The luma of white ``uint8`` pixels, and ``PLANE_MAX`` itself, are
        searched; the next float above it is refused in either plane."""
        white = Frame(0, np.full((16, 24, 3), 255, dtype=np.uint8)).to_grayscale()
        assert not estimate_motion(white, white, 8, 2).vectors.any()
        top = np.full((16, 24), PLANE_MAX)
        top[3:9, 5:13] = 0.0
        assert_same_field(estimate_motion(top, np.roll(top, 1, axis=1), 8, 2),
                          loop_estimate_motion(top, np.roll(top, 1, axis=1), 8, 2))
        above = top.copy()
        above[0, 0] = np.nextafter(PLANE_MAX, np.inf)
        for pair in ((above, top), (top, above)):
            with pytest.raises(CodecError):
                estimate_motion(*pair, 8, 2)
            with pytest.raises(CodecError):
                MotionSearch(8, 2)(*pair)


class TestIntegerBlockSums:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((1, 2, 3, 4, 5, 8, 12, 16, 24, 32)),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from((1, 255, 16383, 32767)),
           st.integers(0, 2**31 - 1))
    def test_sums_equal_int64_sums(self, block_size, count, blocks_y, blocks_x,
                                   term_bound, seed):
        rng = np.random.default_rng(seed)
        shape = (count, blocks_y * block_size, blocks_x * block_size)
        stack = rng.integers(max(term_bound - 2, 0), term_bound + 1,
                             size=shape).astype(np.uint16)
        expected = stack.astype(np.int64).reshape(
            count, blocks_y, block_size, blocks_x, block_size).sum(axis=(2, 4))
        sums = integer_block_sums(stack, block_size, term_bound)
        assert np.array_equal(sums, expected)
        assert sums.dtype == integer_sad_dtype(block_size, term_bound)


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
    return reference, MotionField(vectors, block_size), (height, width)


class TestCompensationMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(_fields())
    @example((np.arange(12.0).reshape(3, 4),
              MotionField(np.full((1, 1, 2), 127, dtype=np.int16), 8),
              (3, 4)))
    @example((np.arange(12.0).reshape(3, 4),
              MotionField(np.full((1, 1, 2), -127, dtype=np.int16), 4),
              (3, 4)))
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
        field = MotionField(np.zeros((2, 2, 2), dtype=np.int16), 8)
        with pytest.raises(CodecError):
            motion_compensate(np.zeros((8, 8)), field, (8, 8))
