"""Tests for frames, resolutions and event timelines."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.video import (Event, EventTimeline, Frame, FrameType, NO_LABEL, Resolution,
                         as_label_set)


class TestResolution:
    def test_properties(self):
        resolution = Resolution(1920, 1080)
        assert resolution.pixels == 1920 * 1080
        assert resolution.shape == (1080, 1920)
        assert resolution.label == "1080p"
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
        assert frame.resolution == Resolution(4, 3)
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

    def test_copy_is_deep(self):
        frame = Frame(index=3, data=np.zeros((4, 4)), frame_type=FrameType.I)
        clone = frame.copy()
        assert clone.frame_type is FrameType.I and clone.index == 3
        clone.data[0, 0] = 9
        assert frame.data[0, 0] == 0

    def test_invalid_shapes(self):
        with pytest.raises(ConfigurationError):
            Frame(index=0, data=np.zeros((2, 2, 4)))
        with pytest.raises(ConfigurationError):
            Frame(index=-1, data=np.zeros((2, 2)))


class TestEvent:
    def test_basic(self):
        event = Event(0, 10, {"car"})
        assert event.num_frames == 10
        assert event.contains(9) and not event.contains(10)
        assert not event.is_background

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            Event(5, 5)


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
        assert timeline.frame_labels() == labels

    def test_sliced_rebases_indices(self):
        labels = [set()] * 4 + [{"car"}] * 4 + [set()] * 4
        window = EventTimeline.from_frame_labels(labels).sliced(2, 10)
        assert window.num_frames == 8
        assert window.labels_at(0) == NO_LABEL
        assert window.labels_at(3) == frozenset({"car"})

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
        assert timeline.frame_labels() == [as_label_set(l) for l in labels]
        # Events cover the video contiguously and adjacent events differ.
        events = timeline.events
        assert events[0].start_frame == 0
        assert events[-1].end_frame == len(labels)
        for earlier, later in zip(events, events[1:]):
            assert earlier.end_frame == later.start_frame
            assert earlier.labels != later.labels
