"""Tests for the event-detection metrics and the offline tuner."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import EncoderParameters
from repro.codec.scenecut import FrameActivity
from repro.core import (DEFAULT_GOP_GRID, DEFAULT_SCENECUT_GRID, ParameterLookupTable,
                        SemanticEncoderTuner, TuningGrid, evaluate_sampling, f1_score)
from repro.errors import ConfigurationError, TuningError
from repro.video import EventTimeline


def make_timeline():
    labels = [set()] * 10 + [{"car"}] * 10 + [set()] * 10
    return EventTimeline.from_frame_labels(labels)


class TestMetrics:
    def test_perfect_sampling(self):
        timeline = make_timeline()
        score = evaluate_sampling(timeline, [0, 10, 20])
        assert score.accuracy == 1.0
        assert score.event_accuracy == 1.0
        assert score.sampling_fraction == pytest.approx(0.1)
        assert score.f1 == pytest.approx(f1_score(1.0, 0.9))

    def test_late_detection_costs_accuracy(self):
        timeline = make_timeline()
        score = evaluate_sampling(timeline, [0, 15, 20])
        # Frames 10-14 keep the stale background label: 5 of 30 frames wrong.
        assert score.accuracy == pytest.approx(25 / 30)
        assert score.event_accuracy == pytest.approx(25 / 30)

    def test_missed_event(self):
        timeline = make_timeline()
        score = evaluate_sampling(timeline, [0])
        assert score.accuracy == pytest.approx(20 / 30)
        # Only the first (background) event starts with a sample.
        assert score.event_accuracy == pytest.approx(10 / 30)

    def test_propagation_before_first_sample_and_after_event_end(self):
        timeline = make_timeline()
        # Frames 0-11 read background (10-11 wrongly), 12-29 read "car"
        # (20-29 wrongly, stale after the event ends).
        assert evaluate_sampling(timeline, [12]).accuracy == pytest.approx(18 / 30)

    def test_sampling_every_frame_is_perfect_but_filters_nothing(self):
        timeline = make_timeline()
        score = evaluate_sampling(timeline, list(range(30)))
        assert score.accuracy == 1.0
        assert score.filtering_rate == 0.0
        assert score.f1 == 0.0

    def test_f1_and_fraction_validation(self):
        assert f1_score(0.0, 0.0) == 0.0
        with pytest.raises(ConfigurationError):
            f1_score(-0.1, 0.5)
        with pytest.raises(ConfigurationError):
            evaluate_sampling(make_timeline(), [40])

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=29), max_size=30))
    def test_property_bounds_and_monotonicity(self, samples):
        timeline = make_timeline()
        samples = sorted(samples)
        score = evaluate_sampling(timeline, samples)
        assert 0.0 <= score.accuracy <= 1.0
        assert 0.0 <= score.f1 <= 1.0
        assert score.event_accuracy <= score.accuracy + 1e-9
        # Adding the event-start frames can never reduce accuracy.
        richer = evaluate_sampling(timeline, sorted(set(samples) | {0, 10, 20}))
        assert richer.accuracy >= score.accuracy - 1e-9

    def test_accuracy_variants_agree_when_every_event_sampled(self):
        timeline = make_timeline()
        samples = [0, 13, 20]
        score = evaluate_sampling(timeline, samples)
        assert score.accuracy == pytest.approx(score.event_accuracy)


class TestTuner:
    def test_grid_size_matches_paper(self):
        grid = TuningGrid()
        assert grid.num_configurations == 25
        assert grid.gop_sizes == DEFAULT_GOP_GRID
        assert grid.scenecut_thresholds == DEFAULT_SCENECUT_GRID
        assert len(grid.configurations()) == 25
        with pytest.raises(TuningError):
            TuningGrid(gop_sizes=())

    @pytest.mark.parametrize("axes", [
        {"gop_sizes": (0,)}, {"gop_sizes": (100.5,)}, {"gop_sizes": (-5,)},
        {"gop_sizes": (math.nan,)}, {"gop_sizes": ("100",)},
        {"gop_sizes": 100}, {"gop_sizes": (100, None)},
        {"scenecut_thresholds": (math.nan,)},
        {"scenecut_thresholds": (-1.0,)}, {"scenecut_thresholds": (401.0,)},
        {"scenecut_thresholds": ("40",)}, {"scenecut_thresholds": ()},
    ])
    def test_grid_points_no_encoder_takes_fail_at_construction(self, axes):
        """These used to construct and fail only when a search walked them."""
        with pytest.raises(TuningError):
            TuningGrid(**axes)

    def test_sequences_become_tuples_and_the_grid_hashes(self):
        grid = TuningGrid(gop_sizes=[100, 250.0],
                          scenecut_thresholds=[20.0, 40.0])
        assert grid.gop_sizes == (100, 250)
        assert type(grid.gop_sizes[1]) is int
        assert grid.scenecut_thresholds == (20.0, 40.0)
        assert hash(grid) == hash(TuningGrid(gop_sizes=(100, 250),
                                             scenecut_thresholds=(20.0, 40.0)))
        assert grid.configurations() == TuningGrid(
            (100, 250), (20.0, 40.0)).configurations()

    @pytest.mark.parametrize("arguments", [
        {"grid": "x"}, {"grid": (100, 250)}, {"grid": 0},
        {"base_parameters": "x"}, {"base_parameters": 250},
        {"base_parameters": ""}, {"grid": TuningGrid(), "base_parameters": {}},
    ])
    def test_a_tuner_of_something_else_fails_at_construction(self, arguments):
        """Regression: ``grid="x"`` and ``base_parameters="x"`` raised a
        bare AttributeError (``base_parameters=""`` fell back silently to
        the defaults)."""
        with pytest.raises(TuningError):
            SemanticEncoderTuner(**arguments)

    def test_configurations_are_built_once_and_shared(self):
        base = EncoderParameters(quality=60)
        grid = TuningGrid((100, 250), (20.0, 40.0))
        configurations = grid.configurations(base)
        assert isinstance(configurations, tuple)
        assert TuningGrid((100, 250), (20.0, 40.0)).configurations(
            EncoderParameters(quality=60)) is configurations
        assert SemanticEncoderTuner(grid, base)._configurations \
            is configurations
        assert grid.configurations() is not configurations
        assert all(parameters.quality == 60 for parameters in configurations)
        with pytest.raises(TuningError):
            grid.configurations("x")

    def test_a_shared_configuration_keeps_its_grid_s_spelling(self):
        # Equal grids, equal hashes: the cache must not hand one grid the
        # other's thresholds, which print differently.
        spelled = [repr(TuningGrid((100,), (threshold,)).configurations()[0]
                        .scenecut_threshold)
                   for threshold in (40, 40.0, 0.0, -0.0)]
        assert spelled == ["40", "40.0", "0.0", "-0.0"]

    def test_tune_finds_high_f1_configuration(self, tiny_video, tiny_timeline):
        tuner = SemanticEncoderTuner()
        result = tuner.tune(tiny_video, camera_name="tiny")
        assert len(result.results) == 25
        assert result.best.score.f1 == max(r.score.f1 for r in result.results)
        assert result.best.score.f1 > 0.85
        assert result.best.score.accuracy > 0.85
        # The tuned configuration must beat the default one on F1.
        default_score = evaluate_sampling(
            tiny_timeline,
            next(r for r in result.results
                 if r.parameters.gop_size == 250
                 and r.parameters.scenecut_threshold == 40.0).keyframe_indices)
        assert result.best.score.f1 >= default_score.f1

    def test_tune_from_activities_validates_length(self, tiny_activities, tiny_timeline):
        tuner = SemanticEncoderTuner()
        with pytest.raises(TuningError):
            tuner.tune_from_activities(tiny_activities[:-1], tiny_timeline)

    def test_tune_requires_ground_truth(self, tiny_video):
        video_without_truth = tiny_video.materialise()
        video_without_truth.timeline = None
        with pytest.raises(TuningError):
            SemanticEncoderTuner().tune(video_without_truth)

    def test_leaderboard_and_table(self, tiny_activities, tiny_timeline):
        result = SemanticEncoderTuner().tune_from_activities(
            tiny_activities, tiny_timeline, "tiny")
        top = result.leaderboard(3)
        assert len(top) == 3
        assert top[0].score.f1 >= top[1].score.f1 >= top[2].score.f1
        table = result.as_table()
        assert len(table) == 25
        assert {"gop_size", "scenecut", "f1"} <= set(table[0])

    def test_lookup_table(self):
        table = ParameterLookupTable()
        parameters = EncoderParameters(gop_size=500, scenecut_threshold=200)
        table.store("cam", parameters)
        assert "cam" in table and len(table) == 1
        assert table.lookup("cam") == parameters
        assert table.as_dict() == {"cam": parameters}
        with pytest.raises(TuningError):
            table.lookup("other")

    def test_score_of_looks_up_grid_cells(self, tiny_activities,
                                          tiny_timeline):
        result = SemanticEncoderTuner().tune_from_activities(
            tiny_activities, tiny_timeline, "tiny")
        assert result.score_of(result.best.parameters) is result.best
        off_grid = EncoderParameters(gop_size=123, scenecut_threshold=77)
        assert result.score_of(off_grid) is None


class TestTieBreakDeterminism:
    """F1 ties resolve to the first configuration in grid order.

    The contract the online controller leans on: a tie-equal "winner" is
    recognisable (it IS the first-in-grid-order cell) and treated as a
    no-op rather than an oscillating retune.
    """

    def flat_activities(self, num_frames=50):
        # Zero novelty after the synthetic first frame: no scene cut
        # fires at any threshold, and no GOP under `num_frames` expires,
        # so every one of the 25 grid cells samples exactly frame 0.
        activities = [FrameActivity(
            frame_index=0, novel_block_fraction=1.0, is_first=True)]
        activities.extend(FrameActivity(
            frame_index=index, novel_block_fraction=0.0)
            for index in range(1, num_frames))
        return activities

    def test_grid_order_is_gop_major(self):
        configurations = TuningGrid().configurations()
        assert [(p.gop_size, p.scenecut_threshold)
                for p in configurations[:6]] == [
            (100, 20), (100, 40), (100, 100), (100, 200), (100, 250),
            (250, 20)]

    def test_all_tie_grid_picks_first_in_grid_order(self):
        activities = self.flat_activities()
        timeline = EventTimeline.from_frame_labels([set()] * len(activities))
        result = SemanticEncoderTuner().tune_from_activities(
            activities, timeline, "flat")
        # Handcrafted tie: every cell produced the same keyframes and F1.
        assert {r.keyframe_indices for r in result.results} == {(0,)}
        assert len({r.score.f1 for r in result.results}) == 1
        assert result.best is result.results[0]
        assert result.best_parameters.gop_size == DEFAULT_GOP_GRID[0]
        assert (result.best_parameters.scenecut_threshold
                == DEFAULT_SCENECUT_GRID[0])

    def test_tie_break_is_stable_across_reruns(self):
        activities = self.flat_activities()
        timeline = EventTimeline.from_frame_labels([set()] * len(activities))
        tuner = SemanticEncoderTuner()
        first = tuner.tune_from_activities(activities, timeline)
        second = tuner.tune_from_activities(activities, timeline)
        assert first.best_parameters == second.best_parameters
        assert first.leaderboard(25) == second.leaderboard(25)

    def test_leaderboard_keeps_grid_order_within_tied_groups(self):
        activities = self.flat_activities()
        timeline = EventTimeline.from_frame_labels([set()] * len(activities))
        result = SemanticEncoderTuner().tune_from_activities(
            activities, timeline)
        # sorted() is stable: an all-tie leaderboard IS the grid order.
        assert [r.parameters for r in result.leaderboard(25)] == [
            r.parameters for r in result.results]


class TestVersionedLookupTable:
    def test_store_appends_auditable_versions(self):
        table = ParameterLookupTable()
        v1_params = EncoderParameters(gop_size=500, scenecut_threshold=200)
        v2_params = EncoderParameters(gop_size=100, scenecut_threshold=200)
        first = table.store("cam", v1_params)
        second = table.store("cam", v2_params, time=36.0,
                             trigger="brightness:page-hinkley=36.599",
                             score=0.963514)
        assert (first.version, second.version) == (1, 2)
        assert first.old is None and first.new == v1_params
        assert second.old == v1_params and second.new == v2_params
        assert table.lookup("cam") == v2_params  # lookup returns latest
        assert table.history("cam") == (first, second)
        assert table.history("never-stored") == ()

    def test_history_lines_are_deterministic_and_diffable(self):
        table = ParameterLookupTable()
        table.store("cam-b", EncoderParameters(gop_size=500,
                                               scenecut_threshold=200))
        table.store("cam-a", EncoderParameters(gop_size=250,
                                               scenecut_threshold=40),
                    time=12.0, trigger="novelty:zscore=5.000", score=0.5)
        lines = table.history_lines()
        # Cameras sort lexicographically; unscored stores render f1=nan.
        assert lines == [
            "camera=cam-a t=12.000000 v1 trigger=novelty:zscore=5.000 "
            "old=[none] new=[gop=250, sc=40] f1=0.500000",
            "camera=cam-b t=0.000000 v1 trigger=store "
            "old=[none] new=[gop=500, sc=200] f1=nan",
        ]
