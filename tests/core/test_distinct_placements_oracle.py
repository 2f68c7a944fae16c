"""The grid search that places each distinct I-frame placement once,
against the search that placed and scored every configuration.

``every_placement_tune_from_activities`` is the body
``SemanticEncoderTuner.tune_from_activities`` carried before distinct
placements: every configuration of the grid is placed, and all of them are
scored in one ``evaluate_sample_sets`` call.  The tuner now places and
scores only the distinct ones, keyed ``(min(gop_size, num_frames),
effective_min_gop, number of cuts)``, and hands each grid point its
placement's score.  Results, scores, keyframe tuples and the winner's grid
position must all be *equal* to the oracle's.  The same holds through a
``DriftMonitor``, whose window is joined from its chunks' columns and whose
incumbent may lie off the grid.
"""

from dataclasses import astuple
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapt import AdaptiveConfig, ChunkScene, DriftMonitor, SceneStats
from repro.adapt.controller import (CONFIRM_CHUNKS, DETECTOR_MIN_SAMPLES,
                                    RETUNE_GRID)
from repro.codec.gop import (ActivityColumns, EncoderParameters,
                             KeyframePlacer)
from repro.codec.scenecut import FrameActivity, novelty_series
from repro.core.metrics import evaluate_sample_sets, evaluate_sampling
from repro.core.tuner import (ConfigurationResult, SemanticEncoderTuner,
                              TuningGrid, TuningResult)
from repro.video.events import EventTimeline


def every_placement_tune_from_activities(tuner, activities, timeline):
    """The oracle: place every configuration, score all of them at once."""
    columns = ActivityColumns(activities)
    configurations = tuner.grid.configurations(tuner.base_parameters)
    placements = [columns.keyframe_indices(parameters)
                  for parameters in configurations]
    scores = evaluate_sample_sets(timeline, placements)
    results = list(map(ConfigurationResult, configurations, scores,
                       map(tuple, placements)))
    best = max(results, key=attrgetter("score.f1"))
    return TuningResult(best=best, results=results)


def assert_equal_to_the_oracle(result, oracle):
    assert result.results == oracle.results
    assert [astuple(r.score) for r in result.results] == \
        [astuple(r.score) for r in oracle.results]
    assert [r.keyframe_indices for r in result.results] == \
        [r.keyframe_indices for r in oracle.results]
    # The same *position* wins: the first F1 maximum in grid order.
    assert result.results.index(result.best) == \
        oracle.results.index(oracle.best)
    assert result.best == oracle.best


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
#: Novelty levels.  0.3 and 1.0 cut under both thresholds 20 and 40, 0.25
#: under 40 only, so their cut sets coincide unless a 0.25 frame is drawn.
NOVELTY_LEVELS = [0.0, 0.004, 0.02, 0.08, 0.25, 0.3, 1.0]
THRESHOLDS = [0.0, 20.0, 40.0, 100.0, 200.0, 250.0, 400.0]
LABEL_SETS = (frozenset(), frozenset({"car"}), frozenset({"bus"}),
              frozenset({"car", "bus"}))


def _activities(draw, num_frames):
    novelty = draw(st.lists(st.sampled_from(NOVELTY_LEVELS),
                            min_size=num_frames, max_size=num_frames))
    # Mid-window is_first records: a joined window holds one per chunk
    # that opened a clip.
    firsts = draw(st.sets(st.integers(0, num_frames - 1), max_size=3))
    return [FrameActivity(frame_index=index, novel_block_fraction=value,
                          is_first=index in firsts)
            for index, value in enumerate(novelty)]


def _frame_labels(draw, num_frames):
    cuts = sorted(draw(st.sets(st.integers(1, num_frames - 1), max_size=6))
                  ) if num_frames > 1 else []
    bounds = [0] + cuts + [num_frames]
    labels = draw(st.lists(st.sampled_from(LABEL_SETS),
                           min_size=len(bounds) - 1,
                           max_size=len(bounds) - 1))
    return [label for label, lo, hi in zip(labels, bounds, bounds[1:])
            for _ in range(hi - lo)]


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


class TestDistinctPlacementsEqualEveryPlacement:
    @settings(max_examples=300, deadline=None)
    @given(_grid_case())
    def test_results_scores_keyframes_and_best(self, case):
        activities, timeline, grid, base = case
        tuner = SemanticEncoderTuner(grid, base)
        assert_equal_to_the_oracle(
            tuner.tune_from_activities(activities, timeline),
            every_placement_tune_from_activities(tuner, activities,
                                                 timeline))

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
            every_placement_tune_from_activities(tuner, activities,
                                                 timeline))


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


class TestTheMonitorDecidesAsTheOracle:
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
        oracle = every_placement_tune_from_activities(
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


class TestChunkSceneColumns:
    def test_the_columns_are_the_records_and_read_only(self):
        activities = (FrameActivity(0, 1.0, True), FrameActivity(1, 0.25),
                      FrameActivity(2, 1.0, True), FrameActivity(3, 0.0))
        scene = _scene(activities, [frozenset()] * 4, 0.1)
        assert scene.novelty.tolist() == [1.0, 0.25, 1.0, 0.0]
        assert scene.firsts == (0, 2)
        with pytest.raises(ValueError):
            scene.novelty[0] = 0.5
        # Derived, so not compared: equal records are equal scenes.
        assert scene == _scene(activities, [frozenset()] * 4, 0.1)
