"""Property-driven scenario fuzzing and the repro-file contract.

The hypothesis strategies sample the same composition space as
``examples/scenario_fuzz.py`` (base scenario x transform presets x seed)
and hold every composition to the cross-layer invariant set.  A shrunk
failing example is exactly a :class:`ScenarioComposition`, and the tests
below also pin that the JSON repro files round-trip, that the fuzz runner
is deterministic (the property the ``scenario-fuzz-smoke`` CI job diffs),
and that failures actually produce replayable repro files.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import DatasetError
from repro.video import fuzzing
from repro.video.fuzzing import (FUZZ_GRID, FUZZ_PARAMETERS,
                                 ScenarioComposition, check_composition,
                                 fuzz_base_names, run_fuzz,
                                 sample_composition)
from repro.video.transforms import TRANSFORMS
from repro.rng import make_rng

compositions = st.builds(
    ScenarioComposition,
    base=st.sampled_from(fuzz_base_names()),
    transforms=st.lists(st.sampled_from(sorted(TRANSFORMS)),
                        unique=True, max_size=3).map(tuple),
    seed=st.integers(min_value=1, max_value=50_000),
)


class TestInvariantProperties:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(composition=compositions)
    def test_random_compositions_uphold_all_single_process_invariants(
            self, composition):
        result = check_composition(composition)
        assert result.ok, (
            f"composition {composition.describe()} broke: " + "; ".join(
                f"{violation.invariant}: {violation.detail}"
                for violation in result.violations))

    def test_composed_scenario_upholds_invariants_including_fleet_parity(self):
        composition = ScenarioComposition(
            "highway", ("rain", "night_cycle"), seed=77)
        result = check_composition(composition)
        assert result.ok, [violation.detail
                           for violation in result.violations]


class TestReproFiles:
    @settings(max_examples=20, deadline=None)
    @given(composition=compositions)
    def test_repro_json_roundtrip(self, composition):
        parsed = ScenarioComposition.from_json(composition.to_json())
        assert parsed == composition
        assert parsed.spec == composition.spec

    def test_malformed_repro_raises_dataset_error(self):
        with pytest.raises(DatasetError):
            ScenarioComposition.from_json("{\"base\": \"highway\"}")
        with pytest.raises(DatasetError):
            ScenarioComposition.from_json("not json at all")

    @pytest.mark.parametrize("fields", [
        {"base": 5}, {"transforms": ["rain"]}, {"transforms": (1,)},
        {"transforms": "rain"}, {"seed": 1.5}, {"seed": True},
        {"duration_seconds": 0.0}, {"duration_seconds": float("nan")},
        {"render_scale": float("inf")}, {"render_scale": "0.05"}])
    def test_the_constructor_refuses_what_spec_would_trip_on(self, fields):
        """``ScenarioComposition(base=5)`` was accepted and failed later,
        in ``.spec``, with a bare TypeError."""
        with pytest.raises(DatasetError, match=next(iter(fields))):
            ScenarioComposition(**{"base": "highway", **fields})

    def test_failures_write_replayable_repro_files(self, tmp_path,
                                                   monkeypatch):
        broken = ScenarioComposition("no_such_scenario", (), seed=1)
        monkeypatch.setattr(fuzzing, "sample_composition",
                            lambda rng: broken)
        run = run_fuzz(1, 0, out_dir=str(tmp_path))
        assert len(run.failures) == 1
        assert run.results[0].violations[0].invariant == "crash"
        assert len(run.repro_paths) == 1
        with open(run.repro_paths[0], "r", encoding="utf-8") as handle:
            replayed = ScenarioComposition.from_json(handle.read())
        assert replayed == broken
        assert "FAIL[crash]" in run.lines()[1]


class TestDeterminism:
    def test_same_seed_runs_are_identical(self):
        first = run_fuzz(3, 42)
        second = run_fuzz(3, 42)
        assert first.lines() == second.lines()

    def test_different_seeds_sample_different_compositions(self):
        first = [result.composition
                 for result in run_fuzz(0, 1).results]
        a = [sample_composition(make_rng(1, "scenario-fuzz", str(i)))
             for i in range(6)]
        b = [sample_composition(make_rng(2, "scenario-fuzz", str(i)))
             for i in range(6)]
        assert a != b

    def test_sampled_compositions_are_valid_specs(self):
        for index in range(20):
            composition = sample_composition(
                make_rng(9, "scenario-fuzz", str(index)))
            profile = composition.build_profile()
            assert profile.seed == composition.seed
            assert len(set(composition.transforms)) == len(
                composition.transforms)


class TestFuzzConfiguration:
    def test_fuzz_grid_contains_the_fuzz_parameters_gop(self):
        # The encode parameters must be representable by the tuner grid so
        # a "tuner found the encode config" degenerate case stays possible.
        assert FUZZ_PARAMETERS.gop_size in FUZZ_GRID.gop_sizes

    def test_base_names_exclude_composed_entries(self):
        assert all("+" not in name for name in fuzz_base_names())
        assert "highway" in fuzz_base_names()
