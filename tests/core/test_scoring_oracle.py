"""Scoring and the grid search against the loops that define them.

``loop_evaluate_sampling`` is the one scoring oracle: the per-frame loop
``core/metrics.py`` carried before scoring became ``searchsorted`` label
propagation over the timeline's cached integer label ids.
``evaluate_sampling`` and ``evaluate_sample_sets`` (at every table budget,
so set boundaries fall across passes) are held to it directly.  The
divisions are the same integer-count divisions throughout, so every float
— and therefore every F1 tie the tuner and the retune controller break —
must be *equal*, not approximately equal.

``loop_tune_from_activities`` is the tuner's one oracle: it places every
configuration of the grid with ``ActivityColumns.keyframe_indices`` and
scores each one with ``evaluate_sampling``.  The tuner places and scores
only the distinct placements (``ActivityColumns.distinct_placements``,
keyed ``(min(gop_size, num_frames), effective_min_gop, number of cuts)``)
in one batch.  Results, scores, keyframe tuples and the winner's grid
position must all equal the oracle's, also through a ``DriftMonitor``,
whose window is joined from its chunks' columns and whose incumbent may
lie off the grid.
"""

import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adapt import AdaptiveConfig, ChunkScene, DriftMonitor, SceneStats
from repro.adapt.controller import (CONFIRM_CHUNKS, DETECTOR_MIN_SAMPLES,
                                    RETUNE_GRID)
from repro.codec.gop import (ActivityColumns, EncoderParameters,
                             KeyframePlacer)
from repro.codec.scenecut import FrameActivity, novelty_series
from video_tools import frame_labels
from repro.core import metrics
from repro.core.metrics import (DetectionScore, evaluate_sample_sets,
                                evaluate_sampling, f1_score)
from repro.core.tuner import (ConfigurationResult, SemanticEncoderTuner,
                              TuningGrid, TuningResult)
from repro.errors import ConfigurationError
from repro.video.events import NO_LABEL, EventTimeline


# --------------------------------------------------------------------- #
# The oracle: the loop implementation, verbatim in behaviour
# --------------------------------------------------------------------- #
def loop_propagate_labels(timeline, sample_indices):
    indices = sorted(set(int(index) for index in sample_indices))
    labels = []
    current = NO_LABEL
    cursor = 0
    for frame_index in range(timeline.num_frames):
        while cursor < len(indices) and indices[cursor] == frame_index:
            current = timeline.labels_at(frame_index)
            cursor += 1
        labels.append(current)
    return labels


def loop_propagation_accuracy(timeline, sample_indices):
    predicted = loop_propagate_labels(timeline, sample_indices)
    truth = frame_labels(timeline)
    correct = sum(1 for observed, expected in zip(predicted, truth)
                  if observed == expected)
    return correct / timeline.num_frames


def loop_event_start_accuracy(timeline, sample_indices):
    indices = sorted(set(int(index) for index in sample_indices))
    wrong = 0
    for event in timeline.events:
        inside = [index for index in indices
                  if event.start_frame <= index < event.end_frame]
        if not inside:
            wrong += event.end_frame - event.start_frame
        else:
            wrong += min(inside) - event.start_frame
    return 1.0 - wrong / timeline.num_frames


def loop_evaluate_sampling(timeline, sample_indices):
    indices = sorted(set(int(index) for index in sample_indices))
    accuracy = loop_propagation_accuracy(timeline, indices)
    event_accuracy = loop_event_start_accuracy(timeline, indices)
    fraction = len(indices) / timeline.num_frames
    filtering = 1.0 - fraction
    return DetectionScore(
        accuracy=accuracy, event_accuracy=event_accuracy,
        sampling_fraction=fraction, filtering_rate=filtering,
        f1=f1_score(accuracy, filtering), num_samples=len(indices),
        num_frames=timeline.num_frames)


def loop_tune_from_activities(tuner, activities, timeline):
    """The grid search one configuration at a time: every configuration
    placed and scored on its own, the first F1 maximum the winner."""
    columns = ActivityColumns(activities)
    results = []
    for parameters in tuner.grid.configurations(tuner.base_parameters):
        keyframes = columns.keyframe_indices(parameters)
        results.append(ConfigurationResult(
            parameters=parameters,
            score=evaluate_sampling(timeline, keyframes),
            keyframe_indices=tuple(keyframes)))
    best = max(results, key=lambda result: result.score.f1)
    return TuningResult(best=best, results=results)


def _position(results, chosen):
    return next(index for index, result in enumerate(results)
                if result is chosen)


def assert_equal_to_the_oracle(result, oracle):
    assert result.results == oracle.results
    assert [astuple(r.score) for r in result.results] == \
        [astuple(r.score) for r in oracle.results]
    assert [r.keyframe_indices for r in result.results] == \
        [r.keyframe_indices for r in oracle.results]
    # The same *position* wins: the first F1 maximum in grid order.
    assert _position(result.results, result.best) == \
        _position(oracle.results, oracle.best)


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
LABEL_SETS = (frozenset(), frozenset({"car"}), frozenset({"bus"}),
              frozenset({"car", "bus"}), frozenset({"boat"}))


@st.composite
def _timeline_and_samples(draw):
    runs = draw(st.lists(
        st.tuples(st.sampled_from(LABEL_SETS), st.integers(1, 12)),
        min_size=1, max_size=12))
    frame_labels = [labels for labels, length in runs for _ in range(length)]
    timeline = EventTimeline.from_frame_labels(frame_labels)
    samples = draw(st.lists(
        st.integers(0, timeline.num_frames - 1), max_size=40))
    return timeline, samples


def make_timeline():
    labels = [set()] * 10 + [{"car"}] * 10 + [set()] * 10
    return EventTimeline.from_frame_labels(labels)


class TestVectorisedScoringEqualsTheLoop:
    @settings(max_examples=300, deadline=None)
    @given(_timeline_and_samples())
    def test_every_field_is_equal_not_approximately(self, case):
        timeline, samples = case
        score = evaluate_sampling(timeline, samples)
        oracle = loop_evaluate_sampling(timeline, samples)
        assert astuple(score) == astuple(oracle)
        assert [type(value) for value in astuple(score)] == \
            [type(value) for value in astuple(oracle)]

    def test_no_samples_labels_everything_background(self):
        timeline = make_timeline()
        assert astuple(evaluate_sampling(timeline, [])) == \
            astuple(loop_evaluate_sampling(timeline, []))
        assert loop_propagate_labels(timeline, []) == [NO_LABEL] * 30
        assert evaluate_sampling(timeline, []).accuracy == 20 / 30

    @pytest.mark.parametrize("container", [list, tuple, set, np.array, iter])
    def test_any_iterable_of_whole_numbers_is_accepted(self, container):
        timeline = make_timeline()
        expected = loop_evaluate_sampling(timeline, [0, 12, 20])
        assert evaluate_sampling(timeline, container([20, 0, 12, 12])) == \
            expected
        assert evaluate_sampling(timeline, [0.0, 12.0, np.int32(20)]) == \
            expected

    def test_timeline_arrays_are_cached_and_read_only(self):
        timeline = make_timeline()
        arrays = timeline.arrays()
        assert timeline.arrays() is arrays
        assert arrays.label_sets[0] == NO_LABEL
        assert arrays.frame_ids.tolist() == [0] * 10 + [1] * 10 + [0] * 10
        assert arrays.starts.tolist() == [0, 10, 20]
        assert arrays.ends.tolist() == [10, 20, 30]
        with pytest.raises(ValueError):
            arrays.frame_ids[0] = 7


class TestSampleIndexValidation:
    """Bad sample indices fail with the typed error, never a bare one."""

    @pytest.mark.parametrize("samples", [
        [0, math.nan], [math.inf], [-math.inf, 3], ["x"], [0, None], [1.5],
        [0, 2.000001], ["3"], [[0, 1], [2, 3]], [[0, 1], [2]], None, 7,
        [2 ** 70], [-1], [30],
    ])
    def test_non_whole_or_out_of_range_indices_are_rejected(self, samples):
        with pytest.raises(ConfigurationError):
            evaluate_sampling(make_timeline(), samples)

    def test_fractional_index_is_not_truncated_to_a_frame(self):
        """``1.5`` used to be scored, silently, as frame 1."""
        timeline = make_timeline()
        with pytest.raises(ConfigurationError, match="whole"):
            evaluate_sampling(timeline, [0, 1.5])


# --------------------------------------------------------------------- #
# Batched scoring == the loop
# --------------------------------------------------------------------- #
@st.composite
def _timeline_and_sample_sets(draw):
    runs = draw(st.lists(
        st.tuples(st.sampled_from(LABEL_SETS), st.integers(1, 12)),
        min_size=1, max_size=12))
    frame_labels = [labels for labels, length in runs for _ in range(length)]
    timeline = EventTimeline.from_frame_labels(frame_labels)
    # Sets come unsorted, with duplicates, and some empty.
    sample_sets = draw(st.lists(
        st.lists(st.integers(0, timeline.num_frames - 1), max_size=30),
        max_size=12))
    # A table budget of a few rows puts set boundaries across passes.
    events = timeline.num_events
    budget = draw(st.sampled_from(
        [metrics._SCORE_TABLE_ELEMENTS, 1, events, 2 * events + 1,
         5 * events - 1]))
    return timeline, sample_sets, budget


class TestBatchedScoringEqualsTheLoop:
    @settings(max_examples=300, deadline=None)
    @given(_timeline_and_sample_sets())
    def test_every_field_of_every_set_is_equal(self, case):
        timeline, sample_sets, budget = case
        with mock.patch.object(metrics, "_SCORE_TABLE_ELEMENTS", budget):
            scores = evaluate_sample_sets(timeline, sample_sets)
        assert len(scores) == len(sample_sets)
        for score, samples in zip(scores, sample_sets):
            oracle = loop_evaluate_sampling(timeline, samples)
            assert astuple(score) == astuple(oracle)
            assert [type(value) for value in astuple(score)] == \
                [type(value) for value in astuple(oracle)]
            assert evaluate_sampling(timeline, samples) == oracle

    def test_no_sets_is_no_scores(self):
        assert evaluate_sample_sets(make_timeline(), []) == []
        assert evaluate_sample_sets(make_timeline(), iter(())) == []

    def test_sets_that_straddle_a_pass_boundary(self):
        timeline = make_timeline()
        sample_sets = [[0], [29, 3, 3], [], [10, 20], list(range(30))]
        # Two sets a pass: passes of (0, 1), (2, 3), (4,).
        with mock.patch.object(metrics, "_SCORE_TABLE_ELEMENTS",
                               2 * timeline.num_events):
            scores = evaluate_sample_sets(timeline, sample_sets)
        assert scores == [loop_evaluate_sampling(timeline, samples)
                          for samples in sample_sets]

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [[math.nan], [1.5], [-1], [30], ["x"],
                                     None, [[0, 1]]])
    def test_one_bad_set_fails_the_batch_with_the_typed_error(self, position,
                                                              bad):
        sample_sets = [[0, 10], [20]]
        sample_sets.insert(position, bad)
        with pytest.raises(ConfigurationError):
            evaluate_sample_sets(make_timeline(), sample_sets)

    def test_mixed_containers_in_one_batch(self):
        timeline = make_timeline()
        sample_sets = [np.array([20, 0]), (12.0, 12), {5, 25}, iter([3]),
                       range(0, 30, 7)]
        expected = [loop_evaluate_sampling(timeline, samples)
                    for samples in ([20, 0], [12], [5, 25], [3],
                                    range(0, 30, 7))]
        assert evaluate_sample_sets(timeline, sample_sets) == expected


# --------------------------------------------------------------------- #
# The batched grid search == the per-configuration loop
# --------------------------------------------------------------------- #
#: The grid values the tuning cases draw from.
GRID_GOPS = [1, 2, 5, 10, 30, 100, 250]
GRID_SCENECUTS = [0.0, 20.0, 40.0, 100.0, 250.0, 400.0]
#: Novelty levels.  0.3 and 1.0 cut under both thresholds 20 and 40, 0.25
#: under 40 only, so their cut sets coincide unless a 0.25 frame is drawn.
NOVELTY_LEVELS = [0.0, 0.004, 0.02, 0.08, 0.25, 0.3, 1.0]
THRESHOLDS = [0.0, 20.0, 40.0, 100.0, 200.0, 250.0, 400.0]


def _frame_labels(draw, num_frames):
    cuts = sorted(draw(st.sets(st.integers(1, num_frames - 1), max_size=6))
                  ) if num_frames > 1 else []
    bounds = [0] + cuts + [num_frames]
    labels = draw(st.lists(st.sampled_from(LABEL_SETS),
                           min_size=len(bounds) - 1,
                           max_size=len(bounds) - 1))
    return [label for label, lo, hi in zip(labels, bounds, bounds[1:])
            for _ in range(hi - lo)]


@st.composite
def _tuning_case(draw):
    num_frames = draw(st.integers(2, 150))
    # Few distinct novelty levels, so many configurations place the same
    # I-frames and tie exactly on F1.
    novelty = draw(st.lists(st.sampled_from([0.0, 0.004, 0.02, 0.08, 0.3, 1.0]),
                            min_size=num_frames, max_size=num_frames))
    firsts = draw(st.sets(st.integers(1, num_frames - 1), max_size=3))
    activities = [FrameActivity(
        frame_index=index, novel_block_fraction=1.0 if index == 0 else value,
        is_first=index == 0 or index in firsts)
        for index, value in enumerate(novelty)]
    timeline = EventTimeline.from_frame_labels(_frame_labels(draw, num_frames))
    grid = TuningGrid(
        gop_sizes=draw(st.lists(st.sampled_from(GRID_GOPS),
                                min_size=1, max_size=4)),
        scenecut_thresholds=draw(st.lists(st.sampled_from(GRID_SCENECUTS),
                                          min_size=1, max_size=4)))
    return activities, timeline, grid


def _activities(draw, num_frames):
    novelty = draw(st.lists(st.sampled_from(NOVELTY_LEVELS),
                            min_size=num_frames, max_size=num_frames))
    # Mid-window is_first records: a joined window holds one per chunk
    # that opened a clip.
    firsts = draw(st.sets(st.integers(0, num_frames - 1), max_size=3))
    return [FrameActivity(frame_index=index, novel_block_fraction=value,
                          is_first=index in firsts)
            for index, value in enumerate(novelty)]


def _gop_sizes(num_frames):
    """GOP caps below, at and above the window's length."""
    above = st.integers(num_frames + 1, 3 * num_frames + 1)
    choices = [st.just(num_frames), above,
               st.sampled_from([500, 1000, 5000])]
    if num_frames > 1:
        choices.append(st.integers(1, num_frames - 1))
    return st.one_of(*choices)


@st.composite
def _grid_case(draw):
    """A window of 1-120 frames whose grid holds GOP caps below, at and
    above its length, duplicate and unsorted values, and a base with an
    explicit minimum interval."""
    num_frames = draw(st.integers(1, 120))
    activities = _activities(draw, num_frames)
    timeline = EventTimeline.from_frame_labels(
        _frame_labels(draw, num_frames))
    # Lists, not sets: duplicate and unsorted grid values.
    grid = TuningGrid(
        gop_sizes=draw(st.lists(_gop_sizes(num_frames), min_size=1,
                                max_size=6)),
        scenecut_thresholds=draw(st.lists(st.sampled_from(THRESHOLDS),
                                          min_size=1, max_size=6)))
    # An explicit minimum interval, at or beyond the window too.
    base = EncoderParameters(min_gop_size=draw(st.sampled_from(
        [0, 0, 1, 3, num_frames, 2 * num_frames])))
    return activities, timeline, grid, base


class TestTunerEqualsThePerConfigurationLoop:
    @settings(max_examples=200, deadline=None)
    @given(_tuning_case())
    def test_results_best_and_tie_break(self, case):
        activities, timeline, grid = case
        tuner = SemanticEncoderTuner(grid)
        result = tuner.tune_from_activities(activities, timeline)
        oracle = loop_tune_from_activities(tuner, activities, timeline)
        assert_equal_to_the_oracle(result, oracle)
        assert result.leaderboard(len(result.results)) == \
            oracle.leaderboard(len(oracle.results))

    @settings(max_examples=300, deadline=None)
    @given(_grid_case())
    def test_gop_caps_around_the_window_and_minimum_intervals(self, case):
        activities, timeline, grid, base = case
        tuner = SemanticEncoderTuner(grid, base)
        assert_equal_to_the_oracle(
            tuner.tune_from_activities(activities, timeline),
            loop_tune_from_activities(tuner, activities, timeline))

    @settings(max_examples=200, deadline=None)
    @given(_grid_case(), st.data())
    def test_joined_columns_place_as_the_whole_pass(self, case, data):
        activities, _, grid, base = case
        cuts = sorted(data.draw(st.sets(
            st.integers(1, max(len(activities) - 1, 1)), max_size=5)))
        bounds = [0] + [cut for cut in cuts if cut < len(activities)] + [
            len(activities)]
        parts = [activities[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        joined = ActivityColumns.concatenate(
            [novelty_series(part) for part in parts],
            [[index for index, activity in enumerate(part)
              if activity.is_first] for part in parts])
        whole = ActivityColumns(activities)
        assert joined.num_frames == whole.num_frames
        for parameters in grid.configurations(base):
            assert joined.keyframe_indices(parameters) == \
                whole.keyframe_indices(parameters)
        assert joined.distinct_placements(grid.configurations(base)) == \
            whole.distinct_placements(grid.configurations(base))

    def test_the_paper_grid_over_a_480_frame_window(self):
        """GOP caps of 500, 1000 and 5000 never bind inside 480 frames,
        and here thresholds 20 and 40 cut the same frames, as do 200 and
        250: 25 grid points, 3 x 3 placement keys.  (Distinct keys may
        still place the same frames; the key only has to be sufficient.)"""
        activities = [FrameActivity(
            frame_index=index,
            novel_block_fraction=(1.0 if index % 97 == 0 else
                                  0.3 if index % 41 == 0 else
                                  0.08 if index % 29 == 0 else
                                  0.02 if index % 13 == 0 else 0.0),
            is_first=index in (0, 240))
            for index in range(480)]
        timeline = EventTimeline.from_frame_labels(
            [set()] * 100 + [{"car"}] * 150 + [set()] * 230)
        tuner = SemanticEncoderTuner(TuningGrid())
        placements, slots = ActivityColumns(activities).distinct_placements(
            TuningGrid().configurations())
        assert len(slots) == 25 and len(placements) == 9
        assert_equal_to_the_oracle(
            tuner.tune_from_activities(activities, timeline),
            loop_tune_from_activities(tuner, activities, timeline))

    def test_exact_ties_resolve_to_the_first_in_grid_order(self):
        # Duplicated grid points and a flat clip: every cell places frame 0
        # alone and ties exactly, so the first cell must win.
        activities = [FrameActivity(
            frame_index=index, novel_block_fraction=1.0 if index == 0 else 0.0,
            is_first=index == 0)
            for index in range(40)]
        timeline = EventTimeline.from_frame_labels([set()] * 40)
        tuner = SemanticEncoderTuner(TuningGrid(gop_sizes=(250, 100, 250),
                                                scenecut_thresholds=(40, 20)))
        result = tuner.tune_from_activities(activities, timeline)
        oracle = loop_tune_from_activities(tuner, activities, timeline)
        assert len({r.score.f1 for r in result.results}) == 1
        assert result.best is result.results[0]
        assert _position(oracle.results, oracle.best) == 0
        assert result.results == oracle.results

    def test_a_kept_tuner_searches_again_with_the_same_answer(self):
        activities, timeline, grid = (
            [FrameActivity(frame_index=index,
                           novel_block_fraction=0.3 if index % 17 == 0 else 0.0,
                           is_first=index == 0) for index in range(120)],
            EventTimeline.from_frame_labels(
                [set()] * 34 + [{"car"}] * 40 + [set()] * 46),
            TuningGrid())
        tuner = SemanticEncoderTuner(grid)
        first = tuner.tune_from_activities(activities, timeline)
        second = tuner.tune_from_activities(activities, timeline)
        assert first.results == second.results
        assert first.results == loop_tune_from_activities(
            tuner, activities, timeline).results


def _tune(activities, timeline, gop_sizes, scenecut_thresholds):
    grid = TuningGrid(gop_sizes=gop_sizes,
                      scenecut_thresholds=scenecut_thresholds)
    return SemanticEncoderTuner(grid).tune_from_activities(activities,
                                                           timeline)


class TestGridMonotonicity:
    """A larger grid never picks a worse winner.  Every old point scores
    as before, so the winning F1 cannot fall; the winner moves only to a
    strictly better point, or — where new points come before it in grid
    order — to an equal one that comes first (``TuningResult``'s
    first-maximum rule)."""

    @settings(max_examples=150, deadline=None)
    @given(_tuning_case(), st.lists(st.sampled_from(GRID_GOPS), min_size=1,
                                    max_size=3))
    def test_appending_gop_values(self, case, extra):
        # GOP-major order: the new points come after every old one.
        activities, timeline, grid = case
        before = _tune(activities, timeline, grid.gop_sizes,
                       grid.scenecut_thresholds)
        after = _tune(activities, timeline, grid.gop_sizes + tuple(extra),
                      grid.scenecut_thresholds)
        assert after.results[:len(before.results)] == before.results
        assert after.best.score.f1 >= before.best.score.f1
        if _position(after.results, after.best) != _position(
                before.results, before.best):
            assert after.best.score.f1 > before.best.score.f1

    @settings(max_examples=150, deadline=None)
    @given(_tuning_case(), st.lists(st.sampled_from(GRID_SCENECUTS),
                                    min_size=1, max_size=3))
    def test_appending_scenecut_values(self, case, extra):
        # Scenecut-minor order: each GOP row gains the new points at its
        # end, so they interleave with the old rows.
        activities, timeline, grid = case
        before = _tune(activities, timeline, grid.gop_sizes,
                       grid.scenecut_thresholds)
        after = _tune(activities, timeline, grid.gop_sizes,
                      grid.scenecut_thresholds + tuple(extra))
        old, new = len(grid.scenecut_thresholds), len(extra)
        moved = [row * (old + new) + column
                 for row in range(len(grid.gop_sizes))
                 for column in range(old)]
        assert [after.results[index] for index in moved] == before.results
        assert after.best.score.f1 >= before.best.score.f1
        winner = _position(after.results, after.best)
        incumbent = moved[_position(before.results, before.best)]
        if winner != incumbent:
            assert (after.best.score.f1 > before.best.score.f1
                    or (after.best.score.f1 == before.best.score.f1
                        and winner < incumbent))


# --------------------------------------------------------------------- #
# Through the drift monitor: joined chunk columns, off-grid incumbents
# --------------------------------------------------------------------- #
def _scene(activities, labels, novelty_stat):
    """A chunk whose statistics are set by hand (they decide when drift
    confirms) and whose analysis pass is drawn (it decides placement)."""
    return ChunkScene(
        stats=SceneStats(num_frames=len(activities),
                         mean_novelty=novelty_stat, scenecut_rate=0.0,
                         mean_brightness=100.0),
        activities=tuple(activities), frame_labels=tuple(labels))


@st.composite
def _monitor_case(draw):
    chunks = DETECTOR_MIN_SAMPLES + CONFIRM_CHUNKS
    scenes = []
    for index in range(chunks):
        size = draw(st.integers(5, 90))
        drifting = index >= DETECTOR_MIN_SAMPLES
        scenes.append(_scene(_activities(draw, size),
                             [frozenset(labels) for labels
                              in _frame_labels(draw, size)],
                             0.5 if drifting else 0.01))
    on_grid = EncoderParameters(
        gop_size=draw(st.sampled_from(RETUNE_GRID.gop_sizes)),
        scenecut_threshold=draw(st.sampled_from(
            RETUNE_GRID.scenecut_thresholds)))
    off_grid = EncoderParameters(
        gop_size=draw(st.integers(1, 700)),
        scenecut_threshold=draw(st.sampled_from(THRESHOLDS + [77.0])),
        min_gop_size=draw(st.sampled_from([0, 2, 30])))
    return scenes, draw(st.sampled_from([on_grid, off_grid]))


class TestTheMonitorDecidesAsTheLoop:
    @settings(max_examples=100, deadline=None)
    @given(_monitor_case())
    def test_decision_from_joined_chunk_columns(self, case):
        scenes, initial = case
        monitor = DriftMonitor(AdaptiveConfig(initial_parameters=initial))
        decisions = [monitor.observe(scene, now=2.0 * index)
                     for index, scene in enumerate(scenes)]
        assert decisions[:-1] == [None] * (len(scenes) - 1)
        decision = decisions[-1]
        assert decision is not None

        activities = [activity for scene in scenes
                      for activity in scene.activities]
        timeline = EventTimeline.from_frame_labels(
            [labels for scene in scenes for labels in scene.frame_labels])
        oracle = loop_tune_from_activities(
            SemanticEncoderTuner(RETUNE_GRID, initial), activities, timeline)
        incumbent = oracle.score_of(initial)
        old_f1 = (incumbent.score.f1 if incumbent is not None else
                  evaluate_sampling(timeline, KeyframePlacer(initial)
                                    .keyframe_indices(activities)).f1)
        assert (decision.old, decision.new) == (initial,
                                                oracle.best.parameters)
        assert (decision.old_f1, decision.new_f1) == (old_f1,
                                                      oracle.best.score.f1)
        assert decision.applied == (oracle.best.parameters != initial
                                    and oracle.best.score.f1 > old_f1)
