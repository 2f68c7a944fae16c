"""Array-at-a-time scoring against the per-set and per-frame code it replaced.

Two oracles live here.  The functions prefixed ``loop_`` are the
implementation ``core/metrics.py`` carried before scoring became
``searchsorted`` label propagation over the timeline's cached integer label
ids.  The functions prefixed ``per_set_`` are that ``searchsorted`` body,
which scored one sample set per call before ``evaluate_sample_sets`` scored
a whole batch in one sets x events table.  The divisions are the same
integer-count divisions throughout, so every float — and therefore every
F1 tie the tuner and the retune controller break — must be *equal*, not
approximately equal.  ``loop_tune_from_activities`` is the tuner's
per-configuration loop, the oracle of the batched grid search.
"""

import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.gop import ActivityColumns
from repro.codec.scenecut import FrameActivity
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


# --------------------------------------------------------------------- #
# The per-set oracle: one sample set per call, searchsorted propagation
# --------------------------------------------------------------------- #
def per_set_validate_samples(sample_indices, num_frames):
    def malformed():
        return ConfigurationError(
            f"sample indices must be a flat sequence of whole frame numbers, "
            f"got {sample_indices!r}")

    try:
        if not isinstance(sample_indices, (np.ndarray, list, tuple)):
            sample_indices = list(sample_indices)
        indices = np.asarray(sample_indices)
    except (TypeError, ValueError):
        raise malformed() from None
    if indices.size == 0:
        return np.empty(0, dtype=np.int64)
    kind = indices.dtype.kind
    if indices.ndim != 1 or kind not in "biuf":
        raise malformed()
    if kind == "f" and not (np.isfinite(indices).all()
                            and (indices == np.floor(indices)).all()):
        raise malformed()
    indices = np.unique(indices.astype(np.int64))
    if indices[0] < 0 or indices[-1] >= num_frames:
        raise ConfigurationError(
            f"sample indices must lie in [0, {num_frames}), got "
            f"{indices[0]}..{indices[-1]}")
    return indices


def per_set_evaluate_sampling(timeline, sample_indices):
    indices = per_set_validate_samples(sample_indices, timeline.num_frames)
    arrays = timeline.arrays()
    # Every frame takes the id of the most recent sample at or before it;
    # frames before the first sample take id 0, the background.
    sampled_ids = np.concatenate(([0], arrays.frame_ids[indices]))
    latest = np.searchsorted(indices, np.arange(timeline.num_frames),
                             side="right")
    correct = np.count_nonzero(sampled_ids[latest] == arrays.frame_ids)
    accuracy = int(correct) / timeline.num_frames
    padded = np.append(indices, timeline.num_frames)
    first = padded[np.searchsorted(indices, arrays.starts, side="left")]
    wrong = np.where(first < arrays.ends, first - arrays.starts,
                     arrays.ends - arrays.starts).sum()
    event_accuracy = 1.0 - int(wrong) / timeline.num_frames
    fraction = len(indices) / timeline.num_frames
    filtering = 1.0 - fraction
    return DetectionScore(
        accuracy=accuracy, event_accuracy=event_accuracy,
        sampling_fraction=fraction, filtering_rate=filtering,
        f1=f1_score(accuracy, filtering), num_samples=len(indices),
        num_frames=timeline.num_frames)


def loop_tune_from_activities(tuner, activities, timeline):
    """The grid search one configuration at a time, scored by the oracle."""
    columns = ActivityColumns(activities)
    results = []
    for parameters in tuner.grid.configurations(tuner.base_parameters):
        keyframes = columns.keyframe_indices(parameters)
        results.append(ConfigurationResult(
            parameters=parameters,
            score=per_set_evaluate_sampling(timeline, keyframes),
            keyframe_indices=tuple(keyframes)))
    best = max(results, key=lambda result: result.score.f1)
    return TuningResult(best=best, results=results)


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
# Batched scoring == the per-set oracle
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


class TestBatchedScoringEqualsThePerSetOracle:
    @settings(max_examples=300, deadline=None)
    @given(_timeline_and_sample_sets())
    def test_every_field_of_every_set_is_equal(self, case):
        timeline, sample_sets, budget = case
        with mock.patch.object(metrics, "_SCORE_TABLE_ELEMENTS", budget):
            scores = evaluate_sample_sets(timeline, sample_sets)
        assert len(scores) == len(sample_sets)
        for score, samples in zip(scores, sample_sets):
            oracle = per_set_evaluate_sampling(timeline, samples)
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
        assert scores == [per_set_evaluate_sampling(timeline, samples)
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
        with pytest.raises(ConfigurationError):
            per_set_evaluate_sampling(make_timeline(), bad)

    def test_mixed_containers_in_one_batch(self):
        timeline = make_timeline()
        sample_sets = [np.array([20, 0]), (12.0, 12), {5, 25}, iter([3]),
                       range(0, 30, 7)]
        expected = [per_set_evaluate_sampling(timeline, list(samples))
                    for samples in ([20, 0], [12], [5, 25], [3],
                                    range(0, 30, 7))]
        assert evaluate_sample_sets(timeline, sample_sets) == expected


# --------------------------------------------------------------------- #
# The batched grid search == the per-configuration loop
# --------------------------------------------------------------------- #
#: The grid values the tuning cases draw from.
GRID_GOPS = [1, 2, 5, 10, 30, 100, 250]
GRID_SCENECUTS = [0.0, 20.0, 40.0, 100.0, 250.0, 400.0]


@st.composite
def _tuning_case(draw):
    num_frames = draw(st.integers(2, 150))
    # Few distinct novelty levels, so many configurations place the same
    # I-frames and tie exactly on F1.
    novelty = draw(st.lists(st.sampled_from([0.0, 0.004, 0.02, 0.08, 0.3, 1.0]),
                            min_size=num_frames, max_size=num_frames))
    firsts = draw(st.sets(st.integers(1, num_frames - 1), max_size=3))
    activities = [FrameActivity(
        frame_index=index, inter_cost=10.0, intra_cost=100.0,
        novel_block_fraction=1.0 if index == 0 else value,
        moving_block_fraction=0.0, is_first=index == 0 or index in firsts)
        for index, value in enumerate(novelty)]
    cuts = sorted(draw(st.sets(st.integers(1, num_frames - 1), max_size=6)))
    bounds = [0] + cuts + [num_frames]
    labels = draw(st.lists(st.sampled_from(LABEL_SETS),
                           min_size=len(bounds) - 1,
                           max_size=len(bounds) - 1))
    frame_labels = [label for label, lo, hi in zip(labels, bounds, bounds[1:])
                    for _ in range(hi - lo)]
    grid = TuningGrid(
        gop_sizes=draw(st.lists(st.sampled_from(GRID_GOPS),
                                min_size=1, max_size=4)),
        scenecut_thresholds=draw(st.lists(st.sampled_from(GRID_SCENECUTS),
                                          min_size=1, max_size=4)))
    return activities, EventTimeline.from_frame_labels(frame_labels), grid


def _position(results, chosen):
    return next(index for index, result in enumerate(results)
                if result is chosen)


class TestTunerEqualsThePerConfigurationLoop:
    @settings(max_examples=200, deadline=None)
    @given(_tuning_case())
    def test_results_best_and_tie_break(self, case):
        activities, timeline, grid = case
        tuner = SemanticEncoderTuner(grid)
        result = tuner.tune_from_activities(activities, timeline)
        oracle = loop_tune_from_activities(tuner, activities, timeline)
        assert result.results == oracle.results
        assert [astuple(r.score) for r in result.results] == \
            [astuple(r.score) for r in oracle.results]
        # The same *position* wins: the first F1 maximum in grid order.
        assert _position(result.results, result.best) == \
            _position(oracle.results, oracle.best)
        assert result.leaderboard(len(result.results)) == \
            oracle.leaderboard(len(oracle.results))

    def test_exact_ties_resolve_to_the_first_in_grid_order(self):
        # Duplicated grid points and a flat clip: every cell places frame 0
        # alone and ties exactly, so the first cell must win.
        activities = [FrameActivity(
            frame_index=index, inter_cost=0.0, intra_cost=100.0,
            novel_block_fraction=1.0 if index == 0 else 0.0,
            moving_block_fraction=0.0, is_first=index == 0)
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
            [FrameActivity(frame_index=index, inter_cost=10.0,
                           intra_cost=100.0,
                           novel_block_fraction=0.3 if index % 17 == 0
                           else 0.0, moving_block_fraction=0.0,
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
