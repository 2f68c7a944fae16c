"""Tests for video containers, the synthetic scene generator and scenarios."""

from dataclasses import replace

import numpy as np
import pytest

from video_tools import video_from_arrays
from repro.errors import ConfigurationError, DatasetError
from repro.video import (ObjectClassSpec, Resolution, SceneProfile,
                         SyntheticScene, VideoMetadata, generate_script,
                         make_scenario, SCENARIOS)
from repro.video.scenarios import LABELLED_SCENARIOS


class TestRawVideo:
    def test_from_arrays(self, rng):
        arrays = [rng.integers(0, 255, size=(8, 10), dtype=np.uint8) for _ in range(5)]
        video = video_from_arrays("clip", arrays, fps=10.0)
        assert len(video) == 5
        assert video.metadata.resolution == Resolution(10, 8)
        assert video.frame(3).index == 3

    def test_mismatched_resolution_rejected(self):
        arrays = [np.zeros((8, 10), dtype=np.uint8), np.zeros((8, 12), dtype=np.uint8)]
        with pytest.raises(ConfigurationError):
            video_from_arrays("clip", arrays)

    def test_metadata_validation(self):
        with pytest.raises(ConfigurationError):
            VideoMetadata("x", Resolution(4, 4), fps=0, num_frames=5)


class TestGeneratedVideo:
    def test_lazy_frames_deterministic(self, tiny_video):
        frame_a = tiny_video.frame(7).data.copy()
        frame_b = tiny_video.frame(7).data.copy()
        assert np.array_equal(frame_a, frame_b)

    def test_materialise_matches_lazy(self, tiny_video):
        materialised = tiny_video.materialise()
        assert np.array_equal(materialised.frame(5).data, tiny_video.frame(5).data)
        assert materialised.timeline == tiny_video.timeline

    def test_out_of_range(self, tiny_video):
        with pytest.raises(ConfigurationError):
            tiny_video.frame(tiny_video.metadata.num_frames)


class TestSyntheticScene:
    def test_script_matches_timeline(self, tiny_scene, tiny_timeline):
        assert tiny_scene.script.timeline() == tiny_timeline
        assert tiny_timeline.num_frames == tiny_scene.profile.num_frames

    def test_objects_actually_visible(self, tiny_scene):
        """Frames inside an object event differ from the background frame."""
        timeline = tiny_scene.script.timeline()
        object_events = [event for event in timeline if event.labels]
        assert object_events, "the tiny scene should contain at least one object"
        event = object_events[0]
        middle = (event.start_frame + event.end_frame) // 2
        background_frame = None
        for candidate in timeline:
            if not candidate.labels:
                background_frame = candidate.start_frame
                break
        difference = np.abs(tiny_scene.frame_array(middle).astype(float)
                            - tiny_scene.frame_array(background_frame).astype(float))
        assert (difference > 25).sum() > 20

    def test_background_static_up_to_noise(self, tiny_scene):
        timeline = tiny_scene.script.timeline()
        background = next(event for event in timeline if not event.labels)
        if background.end_frame - background.start_frame < 2:
            pytest.skip("background event too short")
        first = tiny_scene.frame_array(background.start_frame).astype(float)
        second = tiny_scene.frame_array(background.start_frame + 1).astype(float)
        # Only sensor noise and illumination drift separate the two frames.
        assert np.abs(first - second).max() < 25

    def test_color_rendering(self, tiny_profile):
        scene = SyntheticScene(tiny_profile, as_color=True)
        frame = scene.frame_array(0)
        assert frame.ndim == 3 and frame.shape[2] == 3

    def test_generate_script_respects_concurrency(self, tiny_profile):
        script = generate_script(tiny_profile)
        for frame_index in range(tiny_profile.num_frames):
            assert len(script.visible_tracks(frame_index)) <= \
                tiny_profile.max_concurrent_objects

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            ObjectClassSpec("car", relative_height=0.0)
        with pytest.raises(ConfigurationError):
            SceneProfile(name="x", resolution=Resolution(32, 32), fps=0,
                         duration_seconds=1.0,
                         object_classes=((ObjectClassSpec("car", 0.3), 1.0),))

    def test_profile_copies(self, tiny_profile):
        longer = replace(tiny_profile, duration_seconds=40.0)
        assert longer.num_frames == 2 * tiny_profile.num_frames
        reseeded = replace(tiny_profile, seed=99)
        assert reseeded.seed == 99 and reseeded.name == tiny_profile.name
        scaled = tiny_profile.scaled(0.5)
        assert scaled.resolution.width == tiny_profile.resolution.width // 2


class TestScenarios:
    def test_all_scenarios_construct(self):
        for name in SCENARIOS:
            profile = make_scenario(name, duration_seconds=10, render_scale=0.05)
            assert profile.num_frames == 300
            assert profile.resolution.pixels >= 16 * 16

    def test_labelled_scenarios_have_expected_objects(self):
        labels = {
            "jackson_square": {"car", "bus", "truck"},
            "coral_reef": {"person"},
            "venice": {"boat"},
        }
        for name in LABELLED_SCENARIOS:
            profile = make_scenario(name, duration_seconds=10, render_scale=0.05)
            observed = {spec.label for spec, _ in profile.object_classes}
            assert observed == labels[name]

    def test_object_size_ordering_matches_paper(self):
        """Jackson square objects are close-up (big); Venice boats are distant."""
        jackson = make_scenario("jackson_square", duration_seconds=10)
        venice = make_scenario("venice", duration_seconds=10)
        jackson_height = max(spec.relative_height for spec, _ in jackson.object_classes)
        venice_height = max(spec.relative_height for spec, _ in venice.object_classes)
        assert jackson_height > 3 * venice_height

    def test_unknown_scenario(self):
        with pytest.raises(DatasetError):
            make_scenario("nowhere")

    def test_seed_override_changes_schedule(self):
        a = SyntheticScene(make_scenario("jackson_square", 20, 0.05, seed=1)).script
        b = SyntheticScene(make_scenario("jackson_square", 20, 0.05, seed=2)).script
        assert [t.enter_frame for t in a.tracks] != [t.enter_frame for t in b.tracks]
