"""Unit tests of the per-chunk scene statistics feeding the detectors."""

import math

import pytest

from repro.adapt import ChunkScene, SceneStats, chunk_scene
from repro.adapt.signals import REFERENCE_SCENECUT
from repro.codec.scenecut import FrameActivity, scenecut_score_threshold
from repro.errors import ServiceError


def activity(index: int, novelty: float,
             is_first: bool = False) -> FrameActivity:
    return FrameActivity(frame_index=index, novel_block_fraction=novelty,
                         is_first=is_first)


class TestSceneStats:
    def test_first_frame_is_excluded_from_novelty(self):
        # is_first frames carry a synthetic novelty of 1.0 that would
        # poison the mean and the cut rate.
        stats = SceneStats.from_activities([
            activity(0, 1.0, is_first=True),
            activity(1, 0.02), activity(2, 0.04)])
        assert stats.num_frames == 3
        assert stats.mean_novelty == pytest.approx(0.03)

    def test_cut_rate_counts_reference_threshold_crossings(self):
        threshold = scenecut_score_threshold(REFERENCE_SCENECUT)
        below, above = threshold * 0.5, threshold * 2.0
        stats = SceneStats.from_activities([
            activity(0, below), activity(1, above),
            activity(2, below), activity(3, above)])
        assert stats.scenecut_rate == pytest.approx(0.5)

    def test_cut_rate_uses_the_placers_cut_predicate(self):
        # One predicate for "the cut fired": a disabled scenecut never
        # cuts here either, whatever the novelty, exactly as is_scenecut.
        busy = [activity(index, 0.9) for index in range(4)]
        assert SceneStats.from_activities(
            busy, reference_scenecut=0.0).scenecut_rate == 0.0
        assert SceneStats.from_activities(
            busy, reference_scenecut=REFERENCE_SCENECUT).scenecut_rate == 1.0

    def test_all_first_frames_degenerate_to_zero(self):
        stats = SceneStats.from_activities([activity(0, 1.0, is_first=True)])
        assert stats.mean_novelty == 0.0
        assert stats.scenecut_rate == 0.0

    def test_brightness_defaults_to_nan(self):
        stats = SceneStats.from_activities([activity(0, 0.1)])
        assert math.isnan(stats.mean_brightness)
        lit = SceneStats.from_activities([activity(0, 0.1)],
                                         mean_brightness=123.0)
        assert lit.mean_brightness == 123.0

    def test_validation(self):
        with pytest.raises(ServiceError):
            SceneStats.from_activities([])
        with pytest.raises(ServiceError):
            SceneStats(num_frames=0, mean_novelty=0.0, scenecut_rate=0.0)
        with pytest.raises(ServiceError):
            SceneStats(num_frames=1, mean_novelty=0.0, scenecut_rate=1.5)


class TestChunkScene:
    def test_chunk_scene_builder_freezes_labels(self):
        scene = chunk_scene([activity(0, 0.1), activity(1, 0.2)],
                            [["car"], []], mean_brightness=100.0)
        assert scene.frame_labels == (frozenset({"car"}), frozenset())
        assert scene.stats.num_frames == 2

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ServiceError):
            ChunkScene(stats=SceneStats.from_activities([activity(0, 0.1)]),
                       activities=(activity(0, 0.1),),
                       frame_labels=(frozenset(), frozenset()))
        with pytest.raises(ServiceError):
            ChunkScene(stats=SceneStats(num_frames=2, mean_novelty=0.0,
                                        scenecut_rate=0.0),
                       activities=(activity(0, 0.1),),
                       frame_labels=(frozenset(),))

    def test_the_columns_are_the_records_and_read_only(self):
        activities = (activity(0, 1.0, True), activity(1, 0.25),
                      activity(2, 1.0, True), activity(3, 0.0))

        def scene():
            return ChunkScene(
                stats=SceneStats(num_frames=4, mean_novelty=0.1,
                                 scenecut_rate=0.0, mean_brightness=100.0),
                activities=activities, frame_labels=(frozenset(),) * 4)

        columns = scene()
        assert columns.novelty.tolist() == [1.0, 0.25, 1.0, 0.0]
        assert columns.firsts == (0, 2)
        with pytest.raises(ValueError):
            columns.novelty[0] = 0.5
        # Derived, so not compared: equal records are equal scenes.
        assert columns == scene()

