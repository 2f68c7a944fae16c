"""The batched integer analysis pass against the per-frame float pass it replaced.

``OracleAnalyzer`` (``analysis_oracle.py``) carries the bodies
``SceneCutAnalyzer`` had before ``uint8`` frames were analysed in frame
batches with a 2-byte accumulator.  The comparison is ``==`` on whole
``FrameActivity`` lists: the integer pass is exact by arithmetic (every
SAD, residual and intra deviation is an integer, or an integer over a power
of two, below 2**53), so any rounding difference would be a bug, not noise.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.codec.scenecut as scenecut
from analysis_oracle import KINDS, OracleAnalyzer, colour, render, video_of
from repro.codec.encoder import VideoEncoder
from repro.codec.scenecut import NOVEL_PIXEL_THRESHOLD, SceneCutAnalyzer
from repro.errors import CodecError
from repro.video.frame import Frame, Resolution
from repro.video.raw_video import RawVideo, VideoMetadata


@st.composite
def cases(draw):
    block = draw(st.sampled_from((4, 8, 12, 16)))
    return dict(
        block_size=block,
        search_radius=draw(st.integers(0, 3)),
        kind=draw(st.sampled_from(KINDS)),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        # Unaligned sizes; widths up to one block make one-block-wide frames.
        height=draw(st.integers(1, 3 * block + 3)),
        width=draw(st.one_of(st.integers(1, block),
                             st.integers(1, 3 * block + 3))),
        # Clip lengths from 1 on either side of the batch length.
        length=draw(st.integers(1, 9)),
        batch_frames=draw(st.integers(1, 4)),
    )


def knobs(case):
    return {key: case[key] for key in ("block_size", "search_radius")}


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
    @example(case=dict(block_size=8, search_radius=2, kind="pan", seed=0,
                       height=58, width=102, length=9, batch_frames=4))
    @example(case=dict(block_size=16, search_radius=3, kind="saturated",
                       seed=1, height=33, width=16, length=2,
                       batch_frames=1))
    def test_every_form_equals_the_oracle(self, case):
        """``uint8`` frames equal the float pass:
        the video in frame batches and the planes in frame batches.  One
        analyser serves both calls: each starts again at frame 0."""
        frames = render(case["kind"], case["seed"], case["length"],
                        case["height"], case["width"])
        expected = OracleAnalyzer(**knobs(case)).analyze_video(video_of(frames))
        analyzer = SceneCutAnalyzer(**knobs(case))
        with batched(case):
            assert analyzer.analyze_video(video_of(frames)) == expected
            assert analyzer.analyze_frames(iter(frames)) == expected

    @settings(max_examples=60, deadline=None)
    @given(case=cases())
    def test_float_input_keeps_the_float_path(self, case):
        """RGB-derived luma is not integer: it takes the float64 search,
        exactly as before, and never the integer kernel."""
        rgb = colour(render(case["kind"], case["seed"], case["length"],
                            case["height"], case["width"]))
        expected = OracleAnalyzer(**knobs(case)).analyze_video(video_of(rgb))
        analyzer = SceneCutAnalyzer(**knobs(case))
        with batched(case), mock.patch.object(
                scenecut, "integer_candidate_sads",
                side_effect=AssertionError("float input took the integer path")):
            assert analyzer.analyze_video(video_of(rgb)) == expected

    @pytest.mark.parametrize("levels", [(100, 124), (100, 125), (100, 126),
                                        (126, 100), (0, 255), (7, 8)])
    def test_residuals_at_the_threshold(self, levels):
        """Every residual of two flat frames is exactly ``|a - b|``: a
        difference of 24, 25 and 26 levels sits just below, at and just
        above :data:`NOVEL_PIXEL_THRESHOLD`, and decides all blocks."""
        assert NOVEL_PIXEL_THRESHOLD == 25.0
        height, width = 20, 28
        frames = [np.full((height, width), level, dtype=np.uint8)
                  for level in levels]
        expected = OracleAnalyzer().analyze_video(video_of(frames))
        assert expected[1].novel_block_fraction == (
            1.0 if abs(levels[0] - levels[1]) > 25 else 0.0)
        assert SceneCutAnalyzer().analyze_video(video_of(frames)) == expected

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
            analyzer.analyze_frames([np.zeros(shape, dtype=np.uint8)])
        with pytest.raises(CodecError):
            analyzer.analyze_frames([np.zeros(shape), np.zeros(shape)])
