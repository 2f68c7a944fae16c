"""Array-at-a-time scoring against the per-frame loop it replaced.

The functions prefixed ``loop_`` are the implementation ``core/metrics.py``
carried before scoring became ``searchsorted`` label propagation over the
timeline's cached integer label ids.  They live here as the oracle: the
divisions are the same integer-count divisions, so every float — and
therefore every F1 tie the tuner and the retune controller break — must be
*equal*, not approximately equal.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.metrics import (DetectionScore, evaluate_sampling,
                                event_start_accuracy, f1_score,
                                propagation_accuracy)
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
    truth = timeline.frame_labels()
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
            wrong += event.num_frames
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
        assert propagation_accuracy(timeline, samples) == oracle.accuracy
        assert event_start_accuracy(timeline, samples) == \
            oracle.event_accuracy

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
        for function in (evaluate_sampling, propagation_accuracy,
                         event_start_accuracy):
            with pytest.raises(ConfigurationError, match="whole"):
                function(timeline, [0, 1.5])
