"""Tests for motion estimation, scene-cut analysis and key-frame placement."""

import numpy as np
import pytest

from repro.codec.gop import (DEFAULT_PARAMETERS, EncoderParameters, KeyframePlacer,
                             StreamingKeyframePlacer)
from analysis_oracle import is_scenecut
from video_tools import shift_plane
from repro.codec.motion import (MotionSearch, candidate_offsets, estimate_motion,
                                motion_compensate)
from repro.codec.scenecut import (FrameActivity, SceneCutAnalyzer,
                                  novelty_series, scenecut_score_threshold)
from repro.errors import CodecError, ConfigurationError
from repro.video.frame import FrameType


class TestMotion:
    def test_candidate_offsets_contain_origin_first(self):
        offsets = candidate_offsets(2)
        assert offsets[0] == (0, 0)
        assert len(offsets) == 25
        assert (1, -2) in offsets

    def test_shift_plane_semantics(self):
        plane = np.arange(12, dtype=float).reshape(3, 4)
        shifted = shift_plane(plane, 1, 0)
        assert np.array_equal(shifted[1:], plane[:-1])
        assert np.array_equal(shifted[0], plane[0])  # edge replication

    def test_pure_translation_recovered(self, rng):
        reference = rng.uniform(0, 255, size=(32, 32))
        current = shift_plane(reference, 2, -1)
        field = estimate_motion(reference, current, block_size=8, search_radius=3)
        interior = field.vectors[1:-1, 1:-1]
        assert (interior == np.array([2, -1])).all()
        # The shift is exact: interior blocks predict the frame bit for bit.
        prediction = motion_compensate(reference, field, current.shape)
        assert np.array_equal(prediction[8:-8, 8:-8], current[8:-8, 8:-8])

    def test_motion_compensation_reconstructs_translation(self, rng):
        reference = rng.uniform(0, 255, size=(24, 40))
        current = shift_plane(reference, 1, 1)
        field = estimate_motion(reference, current, block_size=8, search_radius=2)
        prediction = motion_compensate(reference, field, current.shape)
        assert np.abs(current - prediction)[4:-4, 4:-4].max() < 1e-9

    def test_static_scene_zero_vectors(self, rng):
        plane = rng.uniform(0, 255, size=(16, 16))
        field = estimate_motion(plane, plane, block_size=8, search_radius=2)
        assert not field.vectors.any()
        assert np.array_equal(motion_compensate(plane, field, plane.shape), plane)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CodecError):
            estimate_motion(np.zeros((8, 8)), np.zeros((8, 16)))

    @pytest.mark.parametrize("shape", [(0, 16), (16, 0), (0, 0)])
    @pytest.mark.parametrize("search_radius", [0, 3])
    def test_empty_plane_rejected(self, shape, search_radius):
        """A plane without rows used to die in ``pad_edge`` with a bare
        IndexError (and without columns, at radius 0, dividing by zero)."""
        with pytest.raises(CodecError, match="empty"):
            estimate_motion(np.zeros(shape), np.zeros(shape),
                            search_radius=search_radius)
        with pytest.raises(CodecError, match="empty"):
            MotionSearch(search_radius=search_radius)(np.zeros(shape),
                                                      np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, 256.0])
    @pytest.mark.parametrize("which", ["reference", "current"])
    def test_non_finite_plane_rejected(self, bad, which):
        """A NaN or an infinity used to come back as all-zero vectors; the
        search takes luma planes in ``[0, PLANE_MAX]`` only."""
        planes = {"reference": np.full((16, 24), 80.0),
                  "current": np.full((16, 24), 90.0)}
        planes[which][5, 7] = bad
        with pytest.raises(CodecError, match="luma planes in"):
            estimate_motion(planes["reference"], planes["current"], 8, 2)
        with pytest.raises(CodecError, match="luma planes in"):
            MotionSearch(8, 2)(planes["reference"], planes["current"])

    def test_complex_plane_rejected(self):
        """A complex plane used to lose its imaginary part with a
        ComplexWarning."""
        real = np.full((16, 16), 50.0)
        for reference, current in ((real + 1j, real), (real, real + 0j),
                                   (real.astype(object), real)):
            with pytest.raises(CodecError, match="real luma planes"):
                estimate_motion(reference, current, 8, 2)

    @pytest.mark.parametrize("arguments", [
        (8, True), (True, 2), (8, False),
        (8, 2.5), (8.5, 2), (8, "2"), (8, None),
        (0, 2), (8, -1)])
    def test_search_geometry_must_be_whole_numbers(self, arguments):
        """``MotionSearch(8, True)`` used to search radius 1, and
        ``MotionSearch(8, 2.5)`` to raise a bare TypeError."""
        with pytest.raises(CodecError):
            MotionSearch(*arguments)
        with pytest.raises(CodecError):
            estimate_motion(np.zeros((16, 16)), np.zeros((16, 16)), *arguments)

    def test_integral_floats_are_whole_numbers(self, rng):
        reference = rng.uniform(0, 255, size=(24, 32))
        current = shift_plane(reference, 1, -1)
        field = MotionSearch(8.0, np.int64(2))(reference, current)
        expected = MotionSearch(8, 2)(reference, current)
        assert field.block_size == 8 and type(field.block_size) is int
        assert np.array_equal(field.vectors, expected.vectors)


class TestSceneCut:
    def test_threshold_mapping_monotone(self):
        thresholds = [scenecut_score_threshold(value) for value in (0, 40, 100, 250, 400)]
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))
        assert scenecut_score_threshold(400) == 0.0
        assert scenecut_score_threshold(-5) == scenecut_score_threshold(0)

    def test_is_scenecut_first_frame_and_disabled(self):
        first = FrameActivity(0, 1.0, is_first=True)
        assert is_scenecut(first, 40)
        quiet = FrameActivity(1, 0.2)
        assert not is_scenecut(quiet, 0)
        assert is_scenecut(quiet, 300)

    def test_noise_does_not_trigger_novelty(self, rng):
        analyzer = SceneCutAnalyzer()
        base = rng.uniform(60, 200, size=(40, 64))
        noisy_a = _luma(base + rng.normal(0, 2.0, size=base.shape))
        noisy_b = _luma(base + rng.normal(0, 2.0, size=base.shape))
        activity = analyzer.analyze_frames([noisy_a, noisy_b])[1]
        assert activity.novel_block_fraction == 0.0

    def test_appearing_object_triggers_novelty(self, rng):
        analyzer = SceneCutAnalyzer()
        background = rng.uniform(60, 200, size=(40, 64))
        with_object = background.copy()
        with_object[10:26, 20:44] += 80.0
        activity = analyzer.analyze_frames([_luma(background),
                                            _luma(with_object)])[1]
        assert activity.novel_block_fraction > 0.05

    def test_translation_of_whole_scene_not_novel(self, rng):
        analyzer = SceneCutAnalyzer(search_radius=2)
        background = rng.uniform(60, 200, size=(40, 64))
        shifted = shift_plane(background, 0, 1)
        activity = analyzer.analyze_frames([_luma(background),
                                            _luma(shifted)])[1]
        # A global pan is motion-compensable: only frame-edge blocks may be novel.
        assert activity.novel_block_fraction < 0.2

    def test_analyze_video_first_frame_flag(self, tiny_video):
        activities = SceneCutAnalyzer().analyze_video(tiny_video)
        assert activities[0].is_first
        assert not activities[1].is_first
        assert len(activities) == tiny_video.metadata.num_frames
        assert novelty_series(activities).shape == (len(activities),)

    def test_invalid_construction(self):
        with pytest.raises(CodecError):
            SceneCutAnalyzer(block_size=0)

    @pytest.mark.parametrize("block_size", [7.5, True, False, None, -8])
    def test_block_size_must_be_an_integer(self, block_size):
        """A fractional or bool block size used to fail later with a bare
        TypeError, or (``True``) analyse with one-pixel blocks."""
        with pytest.raises(CodecError, match="block_size"):
            SceneCutAnalyzer(block_size=block_size)

    def test_integral_floats_are_whole_numbers(self):
        """The analyser reads its knobs as ``MotionSearch`` and
        ``EncoderParameters`` do (``config.whole_number``)."""
        analyzer = SceneCutAnalyzer(block_size=8.0, search_radius=2.0)
        assert (analyzer.block_size, analyzer.search_radius) == (8, 2)
        assert type(analyzer.block_size) is int
        assert type(analyzer.search_radius) is int

    @pytest.mark.parametrize("knob", [dict(search_radius=1.5),
                                      dict(search_radius=-1)])
    def test_search_knobs_must_be_integers(self, knob):
        with pytest.raises(CodecError):
            SceneCutAnalyzer(**knob)

    def test_numpy_integers_are_integers(self):
        analyzer = SceneCutAnalyzer(block_size=np.int64(8),
                                    search_radius=np.int32(2))
        assert (analyzer.block_size, analyzer.search_radius) == (8, 2)
        assert type(analyzer.block_size) is int
        assert type(analyzer.search_radius) is int

    def test_the_analyser_keeps_no_stream(self, rng):
        """Each call is a whole clip from frame 0: a second call on the same
        analyser gives what a fresh analyser gives."""
        background = rng.integers(60, 200, size=(24, 40)).astype(np.uint8)
        with_object = background.copy()
        with_object[8:16, 8:24] = 255
        analyzer = SceneCutAnalyzer()
        first = analyzer.analyze_frames([background, with_object])
        assert analyzer.analyze_frames([with_object, background]) == (
            SceneCutAnalyzer().analyze_frames([with_object, background]))
        assert analyzer.analyze_frames([background, with_object]) == first
        assert first[0].is_first and first[0].frame_index == 0


def _luma(plane):
    """A float plane as the ``uint8`` plane a camera would deliver."""
    return np.clip(np.rint(plane), 0, 255).astype(np.uint8)


def _activity(index, novelty):
    return FrameActivity(frame_index=index, novel_block_fraction=novelty,
                         is_first=index == 0)


class TestKeyframePlacement:
    def test_parameters_validation(self):
        with pytest.raises(ConfigurationError):
            EncoderParameters(gop_size=0)
        with pytest.raises(ConfigurationError):
            EncoderParameters(scenecut_threshold=500)
        with pytest.raises(ConfigurationError):
            EncoderParameters(quality=0)

    @pytest.mark.parametrize("fields", [
        dict(block_size=8.5), dict(quality=75.5), dict(search_radius=2.5),
        dict(gop_size=2.5), dict(min_gop_size=0.5), dict(block_size="8"),
        dict(quality=None), dict(search_radius=float("nan")),
        dict(gop_size=True), dict(min_gop_size=True), dict(quality=True),
        dict(block_size=True), dict(search_radius=False),
        dict(scenecut_threshold="40"), dict(scenecut_threshold=True),
        dict(scenecut_threshold=None), dict(scenecut_threshold=float("nan")),
        dict(scenecut_threshold=complex(40, 0))])
    def test_bad_fields_are_refused_when_built(self, fields):
        """A fractional block size used to fail at encode with a bare
        TypeError, a fractional quality with ``struct.error`` at a
        materialised encode, a fractional radius only when the analyser was
        built; a string scenecut raised a bare TypeError, and bools were
        taken as 1 (or 0)."""
        with pytest.raises(ConfigurationError, match=next(iter(fields))):
            EncoderParameters(**fields)

    def test_whole_numbers_become_ints_and_scenecut_is_kept_as_given(self):
        parameters = EncoderParameters(
            gop_size=np.int64(30), min_gop_size=3.0, quality=np.float64(75.0),
            block_size=np.float64(8.0), search_radius=np.int32(2),
            scenecut_threshold=250)
        for name in ("gop_size", "min_gop_size", "quality", "block_size",
                     "search_radius"):
            assert type(getattr(parameters, name)) is int, name
        assert (parameters.gop_size, parameters.min_gop_size, parameters.quality,
                parameters.block_size, parameters.search_radius) == (30, 3, 75, 8, 2)
        assert type(parameters.scenecut_threshold) is int
        assert parameters.describe() == "gop=30, sc=250"
        assert EncoderParameters(scenecut_threshold=np.float64(40.5)).describe() == (
            "gop=250, sc=40.5")

    def test_search_radius_beyond_the_vector_byte_rejected(self):
        """Motion vectors travel as one signed byte per component: a +150 px
        match used to be written as -106 and decode to garbage, silently."""
        for radius in (128, 150):
            with pytest.raises(ConfigurationError, match="search_radius"):
                EncoderParameters(search_radius=radius)
        assert EncoderParameters(search_radius=127).search_radius == 127

    def test_block_size_beyond_the_header_byte_rejected(self):
        """The I- and P-frame headers store the block size in one unsigned
        byte: 256 used to die in ``struct.pack`` with a bare struct.error."""
        with pytest.raises(ConfigurationError, match="block_size"):
            EncoderParameters(block_size=256)
        assert EncoderParameters(block_size=255).block_size == 255

    def test_effective_min_gop(self):
        assert EncoderParameters(gop_size=250).effective_min_gop == 25
        assert EncoderParameters(gop_size=1000).effective_min_gop == 25
        assert EncoderParameters(gop_size=40).effective_min_gop == 4
        assert EncoderParameters(gop_size=250, min_gop_size=7).effective_min_gop == 7

    def test_gop_forcing_without_scenecuts(self):
        activities = [_activity(i, 0.0) for i in range(10)]
        placer = KeyframePlacer(EncoderParameters(gop_size=4, scenecut_threshold=0))
        types = placer.place(activities)
        assert [t is FrameType.I for t in types] == [
            True, False, False, False, True, False, False, False, True, False]

    def test_scenecut_places_keyframe(self):
        activities = [_activity(0, 1.0)] + [_activity(i, 0.0) for i in range(1, 6)]
        activities[3] = _activity(3, 0.5)
        placer = KeyframePlacer(EncoderParameters(gop_size=100, scenecut_threshold=250,
                                                  min_gop_size=1))
        assert placer.keyframe_indices(activities) == [0, 3]

    def test_latched_scenecut_deferred_not_dropped(self):
        """A scene cut inside the min-GOP window fires as soon as allowed."""
        activities = [_activity(i, 0.0) for i in range(12)]
        activities[2] = _activity(2, 0.5)  # too close to frame 0
        parameters = EncoderParameters(gop_size=100, scenecut_threshold=250,
                                       min_gop_size=5)
        assert KeyframePlacer(parameters).keyframe_indices(activities) == [0, 5]

    def test_streaming_placer_matches_batch(self, tiny_activities, tuned_parameters):
        batch = KeyframePlacer(tuned_parameters).place(tiny_activities)
        streaming = StreamingKeyframePlacer(tuned_parameters)
        assert [streaming.decide(activity) for activity in tiny_activities] == batch

    def test_higher_scenecut_never_fewer_keyframes(self, tiny_activities):
        counts = []
        for scenecut in (0, 100, 200, 300, 400):
            parameters = EncoderParameters(gop_size=1000, scenecut_threshold=scenecut)
            counts.append(len(KeyframePlacer(parameters).keyframe_indices(tiny_activities)))
        assert counts == sorted(counts)

    def test_default_parameters_constants(self):
        assert DEFAULT_PARAMETERS.gop_size == 250
        assert DEFAULT_PARAMETERS.scenecut_threshold == 40.0
