"""The closed-form key-frame placer against its stateful oracle.

``src/`` states the placement rule exactly twice: one frame at a time in
:class:`StreamingKeyframePlacer` (what the drift soak's schedule replay
calls) and in closed form in :meth:`ActivityColumns.keyframe_indices`
(what every encode and the tuner's grid search call).  The property test below is what
ties the two together; the count guard keeps the grid search an array
program (the cut mask is per distinct scenecut, not per grid point).
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.codec.scenecut as scenecut_module
from repro.codec.gop import (ActivityColumns, EncoderParameters, KeyframePlacer,
                             StreamingKeyframePlacer)
from analysis_oracle import is_scenecut
from repro.codec.scenecut import (FrameActivity, scenecut_novelty_floor,
                                  scenecut_score_threshold)
from repro.core import SemanticEncoderTuner, TuningGrid
from repro.errors import ConfigurationError
from repro.video.frame import FrameType

SCENECUTS = (0.0, 20.0, 40.0, 100.0, 200.0, 250.0, 400.0)


def _activities(novelty, first=()):
    return [FrameActivity(frame_index=index, novel_block_fraction=value,
                          is_first=index in first)
            for index, value in enumerate(novelty)]


def _streaming_keyframes(parameters, activities):
    placer = StreamingKeyframePlacer(parameters)
    return [index for index, activity in enumerate(activities)
            if placer.decide(activity) is FrameType.I]


@st.composite
def _series_and_parameters(draw):
    scenecut = draw(st.one_of(
        st.sampled_from(SCENECUTS),
        st.floats(min_value=0.0, max_value=400.0, allow_nan=False)))
    floor = scenecut_novelty_floor(scenecut)
    interesting = [0.0, 1.0, math.nan, 1e-12]
    if math.isfinite(floor):
        # Exactly at the threshold (must not fire) and one ulp either side.
        interesting += [floor, math.nextafter(floor, 1.0),
                        math.nextafter(floor, 0.0)]
    novelty = draw(st.lists(
        st.one_of(st.sampled_from(interesting),
                  st.floats(min_value=0.0, max_value=1.0)),
        max_size=80))
    first = draw(st.sets(st.integers(min_value=0, max_value=79), max_size=4))
    parameters = EncoderParameters(
        gop_size=draw(st.one_of(st.integers(1, 12), st.integers(1, 300))),
        scenecut_threshold=scenecut,
        min_gop_size=draw(st.one_of(st.just(0), st.integers(0, 40))))
    return _activities(novelty, first), parameters


class TestClosedFormMatchesStreaming:
    @settings(max_examples=400, deadline=None)
    @given(_series_and_parameters())
    @example((_activities([]), EncoderParameters()))
    @example((_activities([0.0] * 9),
              EncoderParameters(gop_size=1, scenecut_threshold=0)))
    @example((_activities([0.0, 0.5, 0.5, 0.0, 0.5, 0.0, 0.0, 0.5], first={5}),
              EncoderParameters(gop_size=3, min_gop_size=7,
                                scenecut_threshold=400)))
    @example((_activities([1.0] + [math.nan] * 6 + [0.5]),
              EncoderParameters(gop_size=5, min_gop_size=2,
                                scenecut_threshold=400)))
    @example((_activities([0.9] * 12),
              EncoderParameters(gop_size=50, min_gop_size=1,
                                scenecut_threshold=0)))
    def test_keyframe_indices_equal_streaming_decisions(self, case):
        activities, parameters = case
        expected = _streaming_keyframes(parameters, activities)
        placer = KeyframePlacer(parameters)
        assert placer.keyframe_indices(activities) == expected
        assert all(type(index) is int
                   for index in placer.keyframe_indices(activities))
        assert placer.place(activities) == [
            FrameType.I if index in set(expected) else FrameType.P
            for index in range(len(activities))]

    def test_columns_are_reusable_across_configurations(self, tiny_activities):
        """One extraction serves every configuration, in any order."""
        columns = ActivityColumns(tiny_activities)
        for gop in (5000, 7, 100):
            for scenecut in (250.0, 0.0, 40.0, 250.0):
                parameters = EncoderParameters(gop_size=gop,
                                               scenecut_threshold=scenecut)
                assert columns.keyframe_indices(parameters) == \
                    _streaming_keyframes(parameters, tiny_activities)

    def test_mid_series_first_frame_clears_a_latched_cut(self):
        """A cut latched before an ``is_first`` frame does not survive it."""
        novelty = [0.0, 0.5] + [0.0] * 8
        parameters = EncoderParameters(gop_size=100, min_gop_size=4,
                                       scenecut_threshold=250)
        activities = _activities(novelty, first={3})
        assert KeyframePlacer(parameters).keyframe_indices(activities) == [0, 3]
        assert _streaming_keyframes(parameters, activities) == [0, 3]

    def test_novelty_exactly_at_the_threshold_does_not_cut(self):
        floor = scenecut_novelty_floor(100.0)
        parameters = EncoderParameters(gop_size=100, min_gop_size=1,
                                       scenecut_threshold=100.0)
        at = _activities([0.0, floor, 0.0, 0.0])
        above = _activities([0.0, math.nextafter(floor, 1.0), 0.0, 0.0])
        assert KeyframePlacer(parameters).keyframe_indices(at) == [0]
        assert KeyframePlacer(parameters).keyframe_indices(above) == [0, 1]


class TestStreamingPlacerRetune:
    def test_parameters_swap_mid_stream_keeps_gop_state(self):
        """A live retune swaps the configuration, not the GOP position."""
        activities = _activities([0.0] * 10)
        placer = StreamingKeyframePlacer(
            EncoderParameters(gop_size=100, scenecut_threshold=0))
        decisions = [placer.decide(activity) for activity in activities[:4]]
        placer.parameters = EncoderParameters(gop_size=6, scenecut_threshold=0)
        decisions += [placer.decide(activity) for activity in activities[4:]]
        # Six frames after frame 0, not six frames after the swap.
        assert [index for index, frame_type in enumerate(decisions)
                if frame_type is FrameType.I] == [0, 6]


class TestCutPredicate:
    @pytest.mark.parametrize("scenecut", SCENECUTS + (-5.0, 123.4))
    def test_floor_is_the_predicate_is_scenecut_applies(self, scenecut):
        floor = scenecut_novelty_floor(scenecut)
        if scenecut <= 0:
            assert floor == math.inf
        else:
            assert floor == max(scenecut_score_threshold(scenecut), 1e-12)
        for novelty in (0.0, 1e-12, 1e-6, 0.01, 0.4, 1.0):
            activity = _activities([0.0, novelty])[1]
            assert is_scenecut(activity, scenecut) == (novelty > floor)

    def test_threshold_mapping_without_numpy_clip(self):
        """The plain-float clip keeps the out-of-range behaviour."""
        assert scenecut_score_threshold(-10) == scenecut_score_threshold(0)
        assert scenecut_score_threshold(1e9) == 0.0
        assert scenecut_score_threshold(400) == 0.0
        assert type(scenecut_score_threshold(40)) is float


class TestGridSearchIsAnArrayProgram:
    def test_full_grid_maps_each_scenecut_once(self, monkeypatch,
                                               tiny_activities, tiny_timeline):
        """25 grid points, 5 distinct scenecuts -> at most 5 threshold maps.

        Count-based, not timing-based: before the closed form every one of
        the 25 x num_frames ``decide`` calls re-derived the threshold.
        """
        calls = []
        real = scenecut_module.scenecut_score_threshold

        def counting(scenecut):
            calls.append(scenecut)
            return real(scenecut)

        monkeypatch.setattr(scenecut_module, "scenecut_score_threshold",
                            counting)
        tuner = SemanticEncoderTuner(TuningGrid())
        assert tuner.grid.num_configurations == 25
        result = tuner.tune_from_activities(tiny_activities, tiny_timeline)
        assert len(result.results) == 25
        assert len(calls) <= 5
        assert sorted(set(calls)) == sorted(tuner.grid.scenecut_thresholds)

    def test_grid_results_equal_per_configuration_streaming_replay(
            self, tiny_activities, tiny_timeline):
        result = SemanticEncoderTuner(TuningGrid()).tune_from_activities(
            tiny_activities, tiny_timeline)
        for configuration in result.results:
            assert list(configuration.keyframe_indices) == _streaming_keyframes(
                configuration.parameters, tiny_activities)


class TestWholeFrameDistances:
    @pytest.mark.parametrize("field", ["gop_size", "min_gop_size"])
    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, "x", None])
    def test_fractional_or_non_numeric_distance_is_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            EncoderParameters(**{field: value})

    def test_integral_float_is_normalised_to_int(self):
        parameters = EncoderParameters(gop_size=30.0, min_gop_size=3.0)
        assert type(parameters.gop_size) is int
        assert type(parameters.min_gop_size) is int
        assert parameters == EncoderParameters(gop_size=30, min_gop_size=3)
        assert parameters.describe() == "gop=30, sc=40"
        activities = _activities([0.0] * 70)
        assert KeyframePlacer(parameters).keyframe_indices(activities) == [
            0, 30, 60]
