"""The batched integer analysis pass against the per-frame float pass it replaced.

``OracleAnalyzer`` below carries the bodies ``SceneCutAnalyzer`` had before
``uint8`` frames were analysed in frame batches with a 2-byte accumulator:
``analyze_video`` converts every frame to float64 luma and calls
``analyze_next``, which calls ``analyze_pair`` — one float64
``MotionSearch``, one ``motion_compensate`` and one intra cost per frame.
The comparison is ``==`` on whole ``FrameActivity`` lists: the integer
pass is exact by arithmetic (every SAD, residual and intra deviation is an
integer, or an integer over a power of two, below 2**53), so any rounding
difference would be a bug, not noise.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.codec.scenecut as scenecut
from repro.codec.blocks import pad_plane, to_blocks
from repro.codec.encoder import VideoEncoder
from repro.codec.motion import MotionSearch, motion_compensate
from repro.codec.scenecut import FrameActivity, SceneCutAnalyzer
from repro.errors import CodecError
from repro.video.frame import Frame, Resolution
from repro.video.raw_video import RawVideo, VideoMetadata


# --------------------------------------------------------------------- #
# The oracle: the per-frame float64 pass, bodies verbatim in behaviour
# --------------------------------------------------------------------- #
class OracleAnalyzer:
    def __init__(self, block_size=8, search_radius=2, search_step=1,
                 novel_pixel_threshold=25.0, novel_pixel_count=4,
                 precision="exact"):
        self.block_size = block_size
        self.novel_pixel_threshold = float(novel_pixel_threshold)
        self.novel_pixel_count = int(novel_pixel_count)
        self._search = MotionSearch(block_size, search_radius, search_step,
                                    precision)
        self._previous = None
        self._frame_index = 0

    def _intra_cost(self, plane):
        blocks = to_blocks(pad_plane(plane, self.block_size), self.block_size)
        means = blocks.mean(axis=(2, 3), keepdims=True)
        return float(np.abs(blocks - means).sum())

    def analyze_pair(self, previous, current, frame_index):
        previous = np.asarray(previous, dtype=np.float64)
        current = np.asarray(current, dtype=np.float64)
        field = self._search(previous, current)
        prediction = motion_compensate(previous, field, current.shape)
        residual = np.abs(current - prediction)
        residual_blocks = to_blocks(pad_plane(residual, self.block_size),
                                    self.block_size)
        novel_pixels = (residual_blocks > self.novel_pixel_threshold).sum(axis=(2, 3))
        novel_blocks = novel_pixels >= self.novel_pixel_count
        return FrameActivity(
            frame_index=frame_index,
            inter_cost=float(field.block_sad.sum()),
            intra_cost=self._intra_cost(current),
            novel_block_fraction=float(novel_blocks.mean()),
            moving_block_fraction=field.nonzero_vector_fraction,
            is_first=False,
        )

    def analyze_next(self, luma):
        luma = np.asarray(luma, dtype=np.float64)
        index = self._frame_index
        if self._previous is None:
            activity = FrameActivity(frame_index=index, inter_cost=0.0,
                                     intra_cost=self._intra_cost(luma),
                                     novel_block_fraction=1.0,
                                     moving_block_fraction=0.0, is_first=True)
        else:
            activity = self.analyze_pair(self._previous, luma, index)
        self._previous = luma
        self._frame_index += 1
        return activity

    def analyze_video(self, video):
        self._previous = None
        self._frame_index = 0
        return [self.analyze_next(frame.to_grayscale())
                for frame in video.frames()]


# --------------------------------------------------------------------- #
# Clips
# --------------------------------------------------------------------- #

#: What the frames hold: noise; one constant for the whole clip (every
#: candidate ties at 0); a new constant per frame (every candidate ties at
#: the same non-zero SAD); 0/255 only (the largest SADs and residuals); a
#: textured background panning by whole pixels under sensor noise, with a
#: bright object entering (the motion and novelty the pass exists for).
KINDS = ("noise", "constant", "ties", "saturated", "pan")

#: Thresholds either side of whole residual levels, plus the edges: an
#: integer residual r is novel iff r > floor(t).
THRESHOLDS = (0.5, 1.0, 24.5, 25.0, 25.000001, 254.9, 255.0, 1e9)


def render(kind, seed, length, height, width):
    """``length`` uint8 frames of one clip."""
    rng = np.random.default_rng(seed)
    shape = (length, height, width)
    if kind == "noise":
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    if kind == "constant":
        return np.full(shape, rng.integers(0, 256), dtype=np.uint8)
    if kind == "ties":
        return np.broadcast_to(rng.integers(0, 256, size=(length, 1, 1)),
                               shape).astype(np.uint8)
    if kind == "saturated":
        return (rng.integers(0, 2, size=shape) * 255).astype(np.uint8)
    margin = 4
    background = rng.integers(40, 200, size=(height + 2 * margin,
                                             width + 2 * margin))
    frames = []
    dy = dx = 0
    for index in range(length):
        dy = int(np.clip(dy + rng.integers(-1, 2), -margin, margin))
        dx = int(np.clip(dx + rng.integers(-1, 2), -margin, margin))
        frame = background[margin + dy:margin + dy + height,
                           margin + dx:margin + dx + width].astype(np.float64)
        frame += rng.normal(0.0, 2.0, size=frame.shape)
        if index >= length // 2:
            top, left = rng.integers(0, height), rng.integers(0, width)
            frame[top:top + 6, left:left + 9] += 90.0
        frames.append(np.clip(frame, 0, 255))
    return np.stack(frames).astype(np.uint8)


def video_of(frames):
    """A ``RawVideo`` over ``frames`` (uint8 grayscale or RGB)."""
    height, width = frames[0].shape[:2]
    return RawVideo(
        VideoMetadata(name="clip", resolution=Resolution(width, height),
                      fps=30.0, num_frames=len(frames)),
        [Frame(index=index, data=data) for index, data in enumerate(frames)])


@st.composite
def cases(draw):
    block = draw(st.sampled_from((4, 8, 12, 16)))
    return dict(
        block_size=block,
        search_radius=draw(st.integers(0, 3)),
        search_step=draw(st.integers(1, 2)),
        novel_pixel_threshold=draw(st.sampled_from(THRESHOLDS)),
        novel_pixel_count=draw(st.sampled_from((1, 2, 4, block * block))),
        kind=draw(st.sampled_from(KINDS)),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        # Unaligned sizes; widths up to one block make one-block-wide frames.
        height=draw(st.integers(1, 3 * block + 3)),
        width=draw(st.one_of(st.integers(1, block),
                             st.integers(1, 3 * block + 3))),
        # Clip lengths from 1 on either side of the batch length.
        length=draw(st.integers(1, 9)),
        batch_frames=draw(st.integers(1, 4)),
        precision=draw(st.sampled_from(("exact", "fast"))),
    )


def knobs(case):
    return {key: case[key] for key in (
        "block_size", "search_radius", "search_step", "novel_pixel_threshold",
        "novel_pixel_count")}


def batched(case):
    """Frame batches of ``batch_frames`` frames (the budget is in pixels)."""
    return mock.patch.object(
        scenecut, "_FRAME_BATCH_ELEMENTS",
        case["batch_frames"] * case["height"] * case["width"])


# --------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------- #
class TestAgainstThePerFramePass:
    @settings(max_examples=200, deadline=None)
    @given(case=cases())
    @example(case=dict(block_size=8, search_radius=2, search_step=1,
                       novel_pixel_threshold=25.0, novel_pixel_count=4,
                       kind="pan", seed=0, height=58, width=102, length=9,
                       batch_frames=4, precision="exact"))
    @example(case=dict(block_size=16, search_radius=3, search_step=1,
                       novel_pixel_threshold=0.5, novel_pixel_count=256,
                       kind="saturated", seed=1, height=33, width=16,
                       length=2, batch_frames=1, precision="exact"))
    def test_every_form_equals_the_oracle(self, case):
        """``uint8`` frames in either precision equal the exact float pass:
        the video in frame batches, a stream frame by frame, a stream in
        batches, and each pair on its own."""
        frames = render(case["kind"], case["seed"], case["length"],
                        case["height"], case["width"])
        expected = OracleAnalyzer(**knobs(case)).analyze_video(video_of(frames))
        analyzer = SceneCutAnalyzer(**knobs(case), precision=case["precision"])
        with batched(case):
            assert analyzer.analyze_video(video_of(frames)) == expected
            analyzer.reset()
            assert [analyzer.analyze_next(frame) for frame in frames] == expected
            analyzer.reset()
            assert analyzer.analyze_frames(iter(frames)) == expected
        assert [analyzer.analyze_pair(frames[index - 1], frames[index], index)
                for index in range(1, len(frames))] == expected[1:]

    @settings(max_examples=60, deadline=None)
    @given(case=cases())
    def test_float_input_keeps_the_float_path(self, case):
        """RGB-derived luma is not integer: it takes the float64 search of
        its own precision, exactly as before, and never the integer kernel."""
        gray = render(case["kind"], case["seed"], case["length"],
                      case["height"], case["width"])
        rgb = np.stack([gray, gray[:, ::-1, ::-1], 255 - gray], axis=-1)
        expected = OracleAnalyzer(
            **knobs(case), precision=case["precision"]).analyze_video(video_of(rgb))
        analyzer = SceneCutAnalyzer(**knobs(case), precision=case["precision"])
        with batched(case), mock.patch.object(
                scenecut, "integer_candidate_sads",
                side_effect=AssertionError("float input took the integer path")):
            assert analyzer.analyze_video(video_of(rgb)) == expected

    @pytest.mark.parametrize("threshold", [0.5, 24.5, 24.999999, 25.0,
                                           25.000001, 254.5, 255.0])
    @pytest.mark.parametrize("levels", [(100, 125), (0, 255), (7, 8)])
    def test_residuals_at_the_threshold(self, threshold, levels):
        """Every residual of two flat frames is exactly ``|a - b|``: a
        threshold just below, at and just above it decides all blocks."""
        height, width = 20, 28
        frames = [np.full((height, width), level, dtype=np.uint8)
                  for level in levels]
        expected = OracleAnalyzer(novel_pixel_threshold=threshold).analyze_video(
            video_of(frames))
        assert SceneCutAnalyzer(novel_pixel_threshold=threshold).analyze_video(
            video_of(frames)) == expected

    def test_large_blocks_take_the_float_path(self):
        """32 x 32 SADs of uint8 planes overflow two bytes."""
        frames = render("pan", 3, 4, 70, 40)
        expected = OracleAnalyzer(block_size=32).analyze_video(video_of(frames))
        with mock.patch.object(
                scenecut, "integer_candidate_sads",
                side_effect=AssertionError("no 2-byte accumulator for 32 x 32")):
            assert SceneCutAnalyzer(block_size=32).analyze_video(
                video_of(frames)) == expected

    def test_a_rendered_scene_equals_the_oracle(self, tiny_video,
                                                tuned_parameters):
        """The encoder's lookahead pass over a rendered scene, at the default
        frame-batch budget."""
        actual = VideoEncoder(tuned_parameters).analyze(tiny_video)
        expected = OracleAnalyzer(
            tuned_parameters.block_size,
            tuned_parameters.search_radius).analyze_video(tiny_video)
        assert actual == expected
        assert sum(activity.novel_block_fraction > 0 for activity in actual) > 10

    def test_the_stream_keeps_its_own_reference(self):
        """``analyze_next`` copies a ``uint8`` plane before keeping it, so a
        caller that refills one capture buffer gets the activities of the
        frames it pushed."""
        frames = render("pan", 5, 6, 24, 40)
        expected = OracleAnalyzer().analyze_video(video_of(frames))
        analyzer = SceneCutAnalyzer()
        buffer = np.empty_like(frames[0])
        actual = []
        for frame in frames:
            buffer[...] = frame
            actual.append(analyzer.analyze_next(buffer))
        assert actual == expected


class TestErrors:
    @pytest.mark.parametrize("batch_frames", [1, 2, 5])
    def test_a_shape_change_mid_clip_is_a_codec_error(self, batch_frames):
        """Frames 0-2 share a shape and frame 3 does not: the batched pass
        raises ``CodecError`` wherever the change falls in a batch, as the
        per-frame pass did — never numpy's ``ValueError``."""
        frames = list(render("noise", 0, 3, 16, 24)) + [
            np.zeros((16, 32), dtype=np.uint8)]
        video = RawVideo(
            VideoMetadata(name="clip", resolution=Resolution(24, 16),
                          fps=30.0, num_frames=4),
            [Frame(index=index, data=data) for index, data in enumerate(frames)])
        with pytest.raises(CodecError):
            OracleAnalyzer().analyze_video(video)
        with mock.patch.object(scenecut, "_FRAME_BATCH_ELEMENTS",
                               batch_frames * 16 * 24):
            with pytest.raises(CodecError, match="shape"):
                SceneCutAnalyzer().analyze_video(video)

    @pytest.mark.parametrize("shape", [(0, 16), (16, 0), (8, 8, 3)])
    def test_planes_that_are_not_luma_are_codec_errors(self, shape):
        analyzer = SceneCutAnalyzer()
        with pytest.raises(CodecError):
            analyzer.analyze_next(np.zeros(shape, dtype=np.uint8))
        with pytest.raises(CodecError):
            analyzer.analyze_pair(np.zeros(shape), np.zeros(shape), 1)
