"""The scenario-transform DSL: no-op defaults, composition, orthogonality."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.video.scenarios import SCENARIOS, make_scenario
from repro.video.synthetic import SyntheticScene, generate_script
from repro.video.transforms import (BUILTIN_COMPOSED_SPECS,
                                    TRANSFORM_FACTORIES, TRANSFORMS,
                                    ScenarioTransform, apply_transforms,
                                    compose, compose_spec, parse_spec,
                                    register_composed)

DURATION = 4.0
SCALE = 0.05


def baseline_profile(name="night"):
    return make_scenario(name, duration_seconds=DURATION, render_scale=SCALE)


class TestNoOpDefaults:
    """Every factory's default is an *exact* no-op — the DSL's core contract."""

    @pytest.mark.parametrize("name", sorted(TRANSFORM_FACTORIES))
    def test_default_leaves_the_profile_equal(self, name):
        profile = baseline_profile()
        assert TRANSFORM_FACTORIES[name]()(profile) == profile

    @pytest.mark.parametrize("name", sorted(TRANSFORM_FACTORIES))
    def test_default_renders_bit_identically(self, name):
        profile = baseline_profile("jackson_square")
        reference = SyntheticScene(profile)
        transformed = SyntheticScene(TRANSFORM_FACTORIES[name]()(profile))
        for index in (0, profile.num_frames // 2, profile.num_frames - 1):
            assert np.array_equal(reference.frame_array(index),
                                  transformed.frame_array(index))

    def test_every_preset_is_a_factory_too(self):
        assert set(TRANSFORMS) == set(TRANSFORM_FACTORIES)

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_presets_are_not_noops(self, name):
        profile = baseline_profile()
        assert TRANSFORMS[name]()(profile) != profile


class TestTransformEffects:
    @pytest.mark.parametrize("name", sorted(
        set(TRANSFORMS) - {"crowd"}))
    def test_pixel_presets_change_the_rendering(self, name):
        profile = baseline_profile("highway")
        transformed = TRANSFORMS[name]()(profile)
        reference = SyntheticScene(profile)
        scene = SyntheticScene(transformed)
        # Sparse effects (a 0.08 dropout rate) touch only a few frames, so
        # scan them all before declaring a preset inert.
        changed = any(
            not np.array_equal(reference.frame_array(index),
                               scene.frame_array(index))
            for index in range(1, profile.num_frames))
        assert changed, f"preset {name!r} rendered bit-identically"

    @pytest.mark.parametrize("name", sorted(
        set(TRANSFORMS) - {"crowd"}))
    def test_pixel_presets_keep_the_schedule(self, name):
        # Weather and camera faults are orthogonal to the event structure:
        # the same traffic crosses the frame, whatever falls from the sky.
        profile = baseline_profile("highway")
        transformed = TRANSFORMS[name]()(profile)
        assert (generate_script(profile).tracks
                == generate_script(transformed).tracks)

    def test_crowd_preset_changes_the_schedule(self):
        profile = baseline_profile("highway")
        crowded = TRANSFORMS["crowd"]()(profile)
        assert crowded.mean_gap_seconds < profile.mean_gap_seconds
        assert crowded.max_concurrent_objects > profile.max_concurrent_objects
        assert (generate_script(crowded).tracks
                != generate_script(profile).tracks)
        # The only preset the pixel tests skip must still render.
        scene = SyntheticScene(crowded)
        for index in (0, crowded.num_frames - 1):
            assert scene.frame_array(index).shape == profile.resolution.shape

    def test_transforms_may_not_rename_the_profile(self):
        from dataclasses import replace
        bad = ScenarioTransform(
            "bad", lambda profile: replace(profile, name="renamed"))
        with pytest.raises(DatasetError, match="renamed the profile"):
            bad(baseline_profile())

    def test_dropout_repeats_frames_bit_exactly(self):
        from repro.video.transforms import dropout
        profile = dropout(0.4)(baseline_profile("highway"))
        scene = SyntheticScene(profile)
        delivered = scene._delivered
        assert delivered is not None and delivered[0] == 0
        repeated = [index for index in range(1, profile.num_frames)
                    if delivered[index] != index]
        assert repeated, "a 0.4 dropout rate dropped nothing"
        for index in repeated[:3]:
            assert np.array_equal(scene.frame_array(index),
                                  scene.frame_array(delivered[index]))


class TestComposition:
    def test_compose_applies_presets_and_forwards_seed(self):
        constructor = compose("highway", "rain", "night_cycle")
        profile = constructor(duration_seconds=DURATION, render_scale=SCALE,
                              seed=123)
        assert profile.name == "highway"
        assert profile.seed == 123
        assert profile.rain_intensity > 0
        assert profile.night_cycle_amplitude > 0

    def test_compose_rejects_unknown_transforms(self):
        with pytest.raises(DatasetError, match="unknown transform"):
            compose("highway", "sharknado")

    def test_compose_rejects_unknown_base_at_build_time(self):
        constructor = compose("atlantis", "rain")
        with pytest.raises(DatasetError, match="unknown base scenario"):
            constructor(duration_seconds=DURATION, render_scale=SCALE)

    def test_parse_spec_roundtrip(self):
        base, names = parse_spec("night + snow + dropout")
        assert base == "night"
        assert names == ("snow", "dropout")
        with pytest.raises(DatasetError, match="empty base"):
            parse_spec("+rain")
        with pytest.raises(DatasetError, match="unknown transform"):
            parse_spec("night+blizzard")

    def test_make_scenario_accepts_unregistered_specs(self):
        before = set(SCENARIOS)
        profile = make_scenario("venice+fog+sensor_jitter",
                                duration_seconds=DURATION,
                                render_scale=SCALE, seed=9)
        assert profile.name == "venice"
        assert profile.fog_density > 0
        assert profile.sensor_jitter_px > 0
        assert profile.seed == 9
        assert set(SCENARIOS) == before, (
            "on-the-fly specs must not mutate the registry")

    def test_builtin_composed_specs_are_registered(self):
        for spec in BUILTIN_COMPOSED_SPECS:
            assert spec in SCENARIOS
            profile = make_scenario(spec, duration_seconds=DURATION,
                                    render_scale=SCALE)
            base = parse_spec(spec)[0]
            assert profile.name == base
            assert profile.num_frames == make_scenario(
                base, duration_seconds=DURATION,
                render_scale=SCALE).num_frames

    def test_register_composed_rejects_duplicates(self):
        with pytest.raises(DatasetError, match="already registered"):
            register_composed(BUILTIN_COMPOSED_SPECS[0])

    def test_apply_transforms_is_left_to_right(self):
        from repro.video.transforms import crowd
        profile = baseline_profile("highway")
        halved_then_doubled = apply_transforms(
            profile, crowd(gap_factor=0.5), crowd(gap_factor=2.0))
        assert halved_then_doubled.mean_gap_seconds == pytest.approx(
            profile.mean_gap_seconds)

    def test_compose_spec_equals_compose(self):
        via_spec = compose_spec("night+snow")(
            duration_seconds=DURATION, render_scale=SCALE, seed=3)
        via_args = compose("night", "snow")(
            duration_seconds=DURATION, render_scale=SCALE, seed=3)
        assert via_spec == via_args
