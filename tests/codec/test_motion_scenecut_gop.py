"""Tests for motion estimation, scene-cut analysis and key-frame placement."""

import numpy as np
import pytest

from repro.codec.gop import (DEFAULT_PARAMETERS, EncoderParameters, KeyframePlacer,
                             StreamingKeyframePlacer, filtering_rate, gop_lengths,
                             sampling_fraction)
from repro.codec.motion import (candidate_offsets, estimate_motion, motion_compensate,
                                residual_plane, shift_plane)
from repro.codec.scenecut import (FrameActivity, SceneCutAnalyzer, is_scenecut,
                                  novelty_series, scenecut_score_threshold,
                                  summarize_activities)
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
        assert field.block_sad[1:-1, 1:-1].max() < 1e-9

    def test_motion_compensation_reconstructs_translation(self, rng):
        reference = rng.uniform(0, 255, size=(24, 40))
        current = shift_plane(reference, 1, 1)
        field = estimate_motion(reference, current, block_size=8, search_radius=2)
        prediction = motion_compensate(reference, field, current.shape)
        assert np.abs(residual_plane(current, prediction))[4:-4, 4:-4].max() < 1e-9

    def test_static_scene_zero_vectors(self, rng):
        plane = rng.uniform(0, 255, size=(16, 16))
        field = estimate_motion(plane, plane, block_size=8, search_radius=2)
        assert field.nonzero_vector_fraction == 0.0
        assert field.mean_sad_per_pixel == pytest.approx(0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CodecError):
            estimate_motion(np.zeros((8, 8)), np.zeros((8, 16)))


class TestSceneCut:
    def test_threshold_mapping_monotone(self):
        thresholds = [scenecut_score_threshold(value) for value in (0, 40, 100, 250, 400)]
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))
        assert scenecut_score_threshold(400) == 0.0
        assert scenecut_score_threshold(-5) == scenecut_score_threshold(0)

    def test_is_scenecut_first_frame_and_disabled(self):
        first = FrameActivity(0, 0.0, 1.0, 1.0, 0.0, is_first=True)
        assert is_scenecut(first, 40)
        quiet = FrameActivity(1, 1.0, 100.0, 0.2, 0.0)
        assert not is_scenecut(quiet, 0)
        assert is_scenecut(quiet, 300)

    def test_noise_does_not_trigger_novelty(self, rng):
        analyzer = SceneCutAnalyzer()
        base = rng.uniform(60, 200, size=(40, 64))
        noisy_a = base + rng.normal(0, 2.0, size=base.shape)
        noisy_b = base + rng.normal(0, 2.0, size=base.shape)
        activity = analyzer.analyze_pair(noisy_a, noisy_b, 1)
        assert activity.novel_block_fraction == 0.0

    def test_appearing_object_triggers_novelty(self, rng):
        analyzer = SceneCutAnalyzer()
        background = rng.uniform(60, 200, size=(40, 64))
        with_object = background.copy()
        with_object[10:26, 20:44] += 80.0
        activity = analyzer.analyze_pair(background, with_object, 1)
        assert activity.novel_block_fraction > 0.05
        assert activity.inter_cost > 0

    def test_translation_of_whole_scene_not_novel(self, rng):
        analyzer = SceneCutAnalyzer(search_radius=2)
        background = rng.uniform(60, 200, size=(40, 64))
        shifted = shift_plane(background, 0, 1)
        activity = analyzer.analyze_pair(background, shifted, 1)
        # A global pan is motion-compensable: only frame-edge blocks may be novel.
        assert activity.novel_block_fraction < 0.2

    def test_analyze_video_first_frame_flag(self, tiny_video):
        activities = SceneCutAnalyzer().analyze_video(tiny_video)
        assert activities[0].is_first
        assert not activities[1].is_first
        assert len(activities) == tiny_video.metadata.num_frames
        summary = summarize_activities(activities)
        assert summary["num_frames"] == len(activities)
        assert novelty_series(activities).shape == (len(activities),)

    def test_invalid_construction(self):
        with pytest.raises(CodecError):
            SceneCutAnalyzer(block_size=0)
        with pytest.raises(CodecError):
            SceneCutAnalyzer(novel_pixel_count=0)


def _activity(index, novelty):
    return FrameActivity(frame_index=index, inter_cost=1.0, intra_cost=10.0,
                         novel_block_fraction=novelty, moving_block_fraction=0.0,
                         is_first=index == 0)


class TestKeyframePlacement:
    def test_parameters_validation(self):
        with pytest.raises(ConfigurationError):
            EncoderParameters(gop_size=0)
        with pytest.raises(ConfigurationError):
            EncoderParameters(scenecut_threshold=500)
        with pytest.raises(ConfigurationError):
            EncoderParameters(quality=0)

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
        assert gop_lengths(types) == [4, 4, 2]

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

    def test_sampling_and_filtering_rates(self):
        types = [FrameType.I, FrameType.P, FrameType.P, FrameType.I]
        assert sampling_fraction(types) == pytest.approx(0.5)
        assert filtering_rate(types) == pytest.approx(0.5)
        assert sampling_fraction([]) == 0.0

    def test_higher_scenecut_never_fewer_keyframes(self, tiny_activities):
        counts = []
        for scenecut in (0, 100, 200, 300, 400):
            parameters = EncoderParameters(gop_size=1000, scenecut_threshold=scenecut)
            counts.append(len(KeyframePlacer(parameters).keyframe_indices(tiny_activities)))
        assert counts == sorted(counts)

    def test_default_parameters_constants(self):
        assert DEFAULT_PARAMETERS.gop_size == 250
        assert DEFAULT_PARAMETERS.scenecut_threshold == 40.0
