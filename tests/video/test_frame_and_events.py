"""Tests for frames, resolutions and event timelines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from video_tools import frame_labels
from repro.video import (Event, EventTimeline, Frame, NO_LABEL, Resolution,
                         as_label_set)


class TestResolution:
    def test_properties(self):
        resolution = Resolution(1920, 1080)
        assert resolution.pixels == 1920 * 1080
        assert resolution.shape == (1080, 1920)
        assert str(resolution) == "1920x1080"

    def test_scaled_has_minimum(self):
        assert Resolution(100, 100).scaled(0.01) == Resolution(16, 16)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            Resolution(0, 10)


class TestFrame:
    def test_grayscale_passthrough(self):
        data = np.arange(12, dtype=np.uint8).reshape(3, 4)
        frame = Frame(index=0, data=data)
        assert frame.data.ndim == 2
        assert np.allclose(frame.to_grayscale(), data)

    def test_color_luma_weights(self):
        data = np.zeros((2, 2, 3), dtype=np.uint8)
        data[..., 1] = 100  # pure green
        frame = Frame(index=0, data=data)
        assert frame.data.ndim == 3
        assert np.allclose(frame.to_grayscale(), 58.7)

    def test_clipping_of_float_input(self):
        frame = Frame(index=0, data=np.array([[300.0, -5.0]]))
        assert frame.data.dtype == np.uint8
        assert frame.data[0, 0] == 255 and frame.data[0, 1] == 0

    def test_invalid_shapes(self):
        with pytest.raises(ConfigurationError):
            Frame(index=0, data=np.zeros((2, 2, 4)))
        with pytest.raises(ConfigurationError):
            Frame(index=-1, data=np.zeros((2, 2)))


class TestEvent:
    def test_basic(self):
        event = Event(0, 10, {"car"})
        assert (event.start_frame, event.end_frame) == (0, 10)
        assert event.labels == frozenset({"car"})
        assert Event(0, 3).labels == NO_LABEL

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            Event(5, 5)

    def test_a_bare_string_is_not_split_into_characters(self):
        """``Event(0, 1, "car")`` used to carry the labels {a, c, r}."""
        with pytest.raises(ConfigurationError, match="string 'car'"):
            Event(0, 1, "car")
        with pytest.raises(ConfigurationError):
            as_label_set("car")
        assert as_label_set(["car"]) == frozenset({"car"})
        assert as_label_set(("car", "bus", "car")) == frozenset({"car", "bus"})


class TestEventTimeline:
    def test_from_frame_labels_compresses_runs(self):
        labels = [set()] * 3 + [{"car"}] * 4 + [set()] * 3
        timeline = EventTimeline.from_frame_labels(labels)
        assert timeline.num_events == 3
        assert timeline.num_frames == 10
        assert [event.start_frame for event in timeline] == [0, 3, 7]
        assert timeline.labels_at(4) == frozenset({"car"})
        assert timeline.labels_at(9) == NO_LABEL

    def test_adjacent_same_labels_merged(self):
        timeline = EventTimeline([Event(0, 5, set()), Event(5, 10, set())])
        assert timeline.num_events == 1

    def test_gap_rejected(self):
        with pytest.raises(ConfigurationError):
            EventTimeline([Event(0, 5), Event(6, 10, {"car"})])

    def test_must_start_at_zero(self):
        with pytest.raises(ConfigurationError):
            EventTimeline([Event(1, 5)])

    def test_event_at_binary_search(self):
        labels = [set()] * 5 + [{"a"}] * 5 + [{"b"}] * 5
        timeline = EventTimeline.from_frame_labels(labels)
        assert timeline.event_at(0).labels == NO_LABEL
        assert timeline.event_at(7).labels == frozenset({"a"})
        assert timeline.event_at(14).labels == frozenset({"b"})
        with pytest.raises(ConfigurationError):
            timeline.event_at(15)

    def test_frame_labels_roundtrip(self):
        labels = [frozenset()] * 2 + [frozenset({"car"})] * 3 + [frozenset()] * 2
        timeline = EventTimeline.from_frame_labels(labels)
        assert frame_labels(timeline) == labels

    def test_object_labels_union(self):
        labels = [{"car"}] * 2 + [{"bus", "car"}] * 2
        timeline = EventTimeline.from_frame_labels(labels)
        assert timeline.object_labels == {"car", "bus"}

    def test_equality(self):
        a = EventTimeline.from_frame_labels([set(), {"x"}])
        b = EventTimeline.from_frame_labels([set(), {"x"}])
        assert a == b

    @given(st.lists(st.sampled_from([frozenset(), frozenset({"car"}),
                                     frozenset({"car", "bus"})]),
                    min_size=1, max_size=60))
    def test_property_roundtrip_and_coverage(self, labels):
        timeline = EventTimeline.from_frame_labels(labels)
        # Per-frame expansion reproduces the input exactly.
        assert frame_labels(timeline) == [as_label_set(l) for l in labels]
        # Events cover the video contiguously and adjacent events differ.
        events = tuple(timeline)
        assert events[0].start_frame == 0
        assert events[-1].end_frame == len(labels)
        for earlier, later in zip(events, events[1:]):
            assert earlier.end_frame == later.start_frame
            assert earlier.labels != later.labels

    def test_bare_string_frame_entries_are_refused(self):
        """``["car", "car", "bus"]`` used to yield the events {a, c, r} and
        {b, s, u}."""
        with pytest.raises(ConfigurationError, match="string 'car'"):
            EventTimeline.from_frame_labels(["car", "car", "bus"])
        with pytest.raises(ConfigurationError, match="string 'bus'"):
            EventTimeline.from_frame_labels([["car"], ["car"], "bus"])


def loop_from_frame_labels(frame_labels):
    """The per-frame loop ``from_frame_labels`` replaced: every entry is
    normalised, then compared with the current event's labels."""
    events = []
    current = as_label_set(frame_labels[0])
    start = 0
    for index in range(1, len(frame_labels)):
        labels = as_label_set(frame_labels[index])
        if labels != current:
            events.append(Event(start, index, current))
            start = index
            current = labels
    events.append(Event(start, len(frame_labels), current))
    return EventTimeline(events)


#: One label set in the containers callers pass: lists (with repeats and in
#: either order), tuples, sets and frozensets compare unequal as raw entries
#: while naming the same labels.
_RAW_ENTRIES = st.sampled_from([
    [], (), frozenset(), set(),
    ["car"], ("car",), {"car"}, frozenset({"car"}), ["car", "car"],
    ["car", "bus"], ["bus", "car"], ("bus", "car"), frozenset({"car", "bus"}),
    {"boat"}, ["boat"],
])


class TestRunLengthFromFrameLabels:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_RAW_ENTRIES, st.integers(1, 6)),
                    min_size=1, max_size=25))
    def test_equals_the_per_frame_loop_on_mixed_containers(self, runs):
        entries = [entry for entry, length in runs for _ in range(length)]
        timeline = EventTimeline.from_frame_labels(entries)
        oracle = loop_from_frame_labels(entries)
        assert timeline == oracle
        assert frame_labels(timeline) == frame_labels(oracle)

    def test_shared_entries_are_normalised_once_per_change(self, monkeypatch):
        import repro.video.events as events_module
        calls = []
        real = events_module.as_label_set

        def counting(labels):
            calls.append(labels)
            return real(labels)

        monkeypatch.setattr(events_module, "as_label_set", counting)
        car, empty = frozenset({"car"}), frozenset()
        frame_labels = [empty] * 200 + [car] * 200 + [empty] * 80
        timeline = EventTimeline.from_frame_labels(frame_labels)
        assert timeline.num_events == 3
        # Three changes of entry, then once more per event in ``Event``.
        assert len(calls) == 3 + 3
