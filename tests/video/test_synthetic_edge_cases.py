"""Edge-case regressions in the synthetic renderer.

Each test here pins a specific bug: a redundant background copy on every
rendered frame, a degenerate one-frame clip crashing downstream consumers
that assume at least two frames, and a single-frame object visit whose
trajectory interpolation divided by zero (or, once patched naively,
parked the object off-frame where clipping deleted its box), and scenario
or repro-file inputs that were silently accepted or failed with a bare
exception instead of a typed one.
"""

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, DatasetError
from repro.video.frame import Resolution
from repro.video.fuzzing import ScenarioComposition
from repro.video.scenarios import make_scenario
from repro.video.synthetic import ObjectClassSpec, ObjectTrack, SceneProfile, SyntheticScene


class CountingArray(np.ndarray):
    """ndarray view that counts explicit ``.copy()`` calls."""

    copies = 0

    def copy(self, order="C"):
        type(self).copies += 1
        return super().copy(order)


class TestNoRedundantCopy:
    def test_frame_array_never_copies_the_background(self):
        profile = make_scenario("highway", duration_seconds=4.0,
                                render_scale=0.05)
        scene = SyntheticScene(profile)
        scene._background = scene._background.view(CountingArray)
        CountingArray.copies = 0
        scene.frame_array(0)
        scene.frame_array(profile.num_frames // 2)
        assert CountingArray.copies == 0, (
            "frame_array copied the cached background; the broadcast add "
            "already allocates a fresh frame")

    def test_rendering_leaves_the_cached_background_untouched(self):
        profile = make_scenario("highway", duration_seconds=4.0,
                                render_scale=0.05)
        scene = SyntheticScene(profile)
        before = scene._background.copy()
        for index in range(0, profile.num_frames, 13):
            scene.frame_array(index)
        assert np.array_equal(scene._background, before)


class TestDegenerateDuration:
    def _profile(self, duration_seconds):
        return SceneProfile(
            name="tiny",
            resolution=Resolution(64, 36),
            fps=30.0,
            duration_seconds=duration_seconds,
            object_classes=((ObjectClassSpec("car", 0.3), 1.0),),
        )

    def test_one_frame_clip_is_rejected(self):
        with pytest.raises(ConfigurationError, match="at least 2 frames"):
            self._profile(1.0 / 30.0)

    def test_two_frame_clip_is_allowed_and_renders(self):
        profile = self._profile(2.0 / 30.0)
        assert profile.num_frames == 2
        scene = SyntheticScene(profile)
        for index in range(profile.num_frames):
            frame = scene.frame_array(index)
            assert frame.shape == (36, 64)


class TestSingleFrameVisit:
    def test_single_frame_track_stays_on_screen(self):
        track = ObjectTrack(
            label="car",
            spec=ObjectClassSpec("car", relative_height=0.3, aspect_ratio=2.0),
            enter_frame=5,
            exit_frame=6,
            lane_fraction=0.5,
            direction=1,
            brightness=80.0,
        )
        resolution = Resolution(64, 36)
        box = track.bounding_box(5, resolution)
        assert box is not None, (
            "a one-frame visit must still place the object on screen")
        x0, y0, x1, y1 = box
        assert 0 <= x0 < x1 <= resolution.width
        assert 0 <= y0 < y1 <= resolution.height
        # progress 0.5 puts the centre mid-crossing, i.e. near frame centre.
        centre = (x0 + x1) / 2
        assert abs(centre - resolution.width / 2) <= resolution.width / 4

    def test_single_frame_track_is_invisible_outside_its_frame(self):
        track = ObjectTrack(
            label="car",
            spec=ObjectClassSpec("car", relative_height=0.3, aspect_ratio=2.0),
            enter_frame=5,
            exit_frame=6,
            lane_fraction=0.5,
            direction=-1,
            brightness=80.0,
        )
        resolution = Resolution(64, 36)
        assert track.bounding_box(4, resolution) is None
        assert track.bounding_box(6, resolution) is None


def repro_file(**overrides):
    fields = {"base": "highway", "transforms": ["rain"], "seed": 1,
              "duration_seconds": 4.0, "render_scale": 0.05}
    return json.dumps({**fields, **overrides})


class TestTypedInputErrors:
    @pytest.mark.parametrize("call, error", [
        (lambda: make_scenario("highway", render_scale=-1.0), ConfigurationError),
        (lambda: make_scenario("highway", render_scale=0.0), ConfigurationError),
        (lambda: make_scenario("highway", render_scale=math.inf), ConfigurationError),
        (lambda: make_scenario("highway", render_scale=math.nan), ConfigurationError),
        (lambda: make_scenario("highway", duration_seconds=math.nan), ConfigurationError),
        (lambda: make_scenario("highway", duration_seconds=math.inf), ConfigurationError),
        (lambda: Resolution(64, 36).scaled(-0.5), ConfigurationError),
        (lambda: ScenarioComposition.from_json(repro_file(base=5)), DatasetError),
        (lambda: ScenarioComposition.from_json(repro_file(transforms=[1])), DatasetError),
        (lambda: ScenarioComposition.from_json(repro_file(transforms="rain")), DatasetError),
        (lambda: ScenarioComposition.from_json(repro_file(seed=1.5)), DatasetError),
        (lambda: ScenarioComposition.from_json(repro_file(seed=True)), DatasetError),
    ], ids=["scale-negative", "scale-zero", "scale-inf", "scale-nan",
            "duration-nan", "duration-inf", "resolution-negative", "base-int",
            "transform-int", "transforms-str", "seed-fraction", "seed-bool"])
    def test_bad_input_raises_a_typed_error(self, call, error):
        with pytest.raises(error):
            call()

    def test_a_valid_repro_file_still_parses(self):
        composition = ScenarioComposition.from_json(repro_file())
        assert composition == ScenarioComposition("highway", ("rain",), seed=1)
