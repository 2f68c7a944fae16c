"""Registry coverage and the seed-forwarding contract of make_scenario.

The seed override must reach the scenario *constructor* — not be patched
onto the profile afterwards — because schedule generation and every
derived RNG stream key off the seed the constructor bakes in.  The probe
test below fails on any implementation that builds the profile first and
replaces the seed after the fact.
"""

import pytest

from repro.errors import DatasetError
from repro.video.scenarios import (LABELLED_SCENARIOS, SCENARIOS,
                                   UNLABELLED_SCENARIOS, make_scenario)
from repro.video.synthetic import SyntheticScene, generate_script

DURATION = 30.0
SCALE = 0.05


class TestSeedForwarding:
    def test_seed_is_passed_into_the_constructor(self, monkeypatch):
        received = {}

        def probe(duration_seconds, render_scale, seed=99):
            received["seed"] = seed
            return make_scenario("highway", duration_seconds, render_scale,
                                 seed=seed)

        monkeypatch.setitem(SCENARIOS, "probe_scenario", probe)
        profile = make_scenario("probe_scenario", DURATION, SCALE, seed=4321)
        assert received["seed"] == 4321
        assert profile.seed == 4321

    def test_omitted_seed_keeps_the_constructor_default(self, monkeypatch):
        received = {}

        def probe(duration_seconds, render_scale, seed=99):
            received["seed"] = seed
            return make_scenario("highway", duration_seconds, render_scale,
                                 seed=seed)

        monkeypatch.setitem(SCENARIOS, "probe_scenario", probe)
        make_scenario("probe_scenario", DURATION, SCALE)
        assert received["seed"] == 99

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_distinct_seeds_yield_distinct_schedules(self, name):
        first = make_scenario(name, DURATION, SCALE, seed=101)
        second = make_scenario(name, DURATION, SCALE, seed=202)
        assert first.seed == 101 and second.seed == 202
        script_a = generate_script(first)
        script_b = generate_script(second)
        assert script_a.tracks, f"{name}: seed 101 scheduled no events"
        assert script_b.tracks, f"{name}: seed 202 scheduled no events"
        assert script_a.tracks != script_b.tracks, (
            f"{name}: the seed override never reached schedule generation")


class TestRegistryCoverage:
    def test_all_scenarios_round_trips_the_registry(self):
        profiles = {name: make_scenario(name, 4.0, SCALE) for name in SCENARIOS}
        assert set(profiles) == set(SCENARIOS)
        for name, profile in profiles.items():
            script = generate_script(profile)
            assert script.num_frames == profile.num_frames
            frame = SyntheticScene(profile).frame_array(0)
            assert frame.shape == (profile.resolution.height,
                                   profile.resolution.width)
            assert frame.dtype.name == "uint8"

    def test_unknown_name_error_lists_every_valid_name(self):
        with pytest.raises(DatasetError) as excinfo:
            make_scenario("nowhere_at_all")
        message = str(excinfo.value)
        for name in SCENARIOS:
            assert name in message

    def test_labelled_and_unlabelled_are_registered(self):
        assert set(LABELLED_SCENARIOS) <= set(SCENARIOS)
        assert set(UNLABELLED_SCENARIOS) <= set(SCENARIOS)
        assert not set(LABELLED_SCENARIOS) & set(UNLABELLED_SCENARIOS)

    def test_composed_entries_share_their_base_name(self):
        composed = [name for name in SCENARIOS if "+" in name]
        assert composed, "builtin composed specs should be registered"
        for spec in composed:
            profile = make_scenario(spec, duration_seconds=4.0,
                                    render_scale=SCALE)
            assert profile.name == spec.split("+")[0]
