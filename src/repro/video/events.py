"""Semantic events and ground-truth label timelines.

The paper defines an *event* as a maximal run of consecutive frames that all
carry the same set of object labels (Section IV, the 30-second example with
three events: no label, ``car``, no label).  The offline tuner scores an
encoder configuration by whether each event starts with an I-frame, and the
evaluation measures per-frame label accuracy against these timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (FrozenSet, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from ..errors import ConfigurationError

LabelSet = FrozenSet[str]

#: Canonical representation of "no object in the scene".
NO_LABEL: LabelSet = frozenset()


def as_label_set(labels: Iterable[str]) -> LabelSet:
    """Normalise an iterable of labels into a canonical frozen set.

    Raises:
        ConfigurationError: If ``labels`` is a bare string, which would
            otherwise split into one label per character.
    """
    if isinstance(labels, str):
        raise ConfigurationError(
            f"a label set must be a collection of labels, not the string "
            f"{labels!r} (write [{labels!r}])")
    return frozenset(map(str, labels))


@dataclass(frozen=True)
class Event:
    """A maximal run of frames sharing the same object-label set.

    Attributes:
        start_frame: Index of the first frame of the event (inclusive).
        end_frame: Index one past the last frame of the event (exclusive).
        labels: Object labels visible during the event (empty = background).
    """

    start_frame: int
    end_frame: int
    labels: LabelSet = NO_LABEL

    def __post_init__(self) -> None:
        if self.start_frame < 0:
            raise ConfigurationError(f"start_frame must be >= 0, got {self.start_frame}")
        if self.end_frame <= self.start_frame:
            raise ConfigurationError(
                f"end_frame ({self.end_frame}) must be > start_frame ({self.start_frame})")
        object.__setattr__(self, "labels", as_label_set(self.labels))

    @property
    def num_frames(self) -> int:
        """Number of frames covered by the event."""
        return self.end_frame - self.start_frame

    @property
    def is_background(self) -> bool:
        """Whether the event has no object labels."""
        return not self.labels

    def contains(self, frame_index: int) -> bool:
        """Whether ``frame_index`` falls inside the event."""
        return self.start_frame <= frame_index < self.end_frame


class TimelineArrays(NamedTuple):
    """Read-only integer-array view of an :class:`EventTimeline`.

    Attributes:
        label_sets: The distinct label sets of the timeline;
            ``label_sets[0]`` is always :data:`NO_LABEL`.
        frame_ids: Per frame, the index into ``label_sets`` of its label
            set — two frames carry equal labels exactly when their ids are
            equal.
        starts: First frame of every event.
        ends: One past the last frame of every event.
    """

    label_sets: Tuple[LabelSet, ...]
    frame_ids: np.ndarray
    starts: np.ndarray
    ends: np.ndarray


class EventTimeline:
    """Ground-truth labels for every frame of a video, stored as events.

    A timeline is a contiguous, non-overlapping sequence of :class:`Event`
    objects covering frames ``0 .. num_frames-1``.  Adjacent events always
    have different label sets (otherwise they would be one event).

    Args:
        events: Events sorted by ``start_frame`` and covering the video with
            no gaps or overlaps.

    Raises:
        ConfigurationError: If the events do not form a valid timeline.
    """

    def __init__(self, events: Sequence[Event]) -> None:
        events = list(events)
        if not events:
            raise ConfigurationError("EventTimeline requires at least one event")
        events.sort(key=lambda event: event.start_frame)
        if events[0].start_frame != 0:
            raise ConfigurationError("Timeline must start at frame 0")
        merged: List[Event] = []
        for event in events:
            if merged:
                previous = merged[-1]
                if event.start_frame != previous.end_frame:
                    raise ConfigurationError(
                        f"Timeline has a gap/overlap at frame {event.start_frame}")
                if event.labels == previous.labels:
                    merged[-1] = Event(previous.start_frame, event.end_frame,
                                       previous.labels)
                    continue
            merged.append(event)
        self._events: Tuple[Event, ...] = tuple(merged)
        self._num_frames = self._events[-1].end_frame
        self._starts = [event.start_frame for event in self._events]
        self._arrays: Optional[TimelineArrays] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_frame_labels(cls, frame_labels: Sequence[Iterable[str]]) -> "EventTimeline":
        """Build a timeline from per-frame label sets.

        A frame's entry is normalised only where it differs from the
        frame before it: an entry equal to its predecessor holds the same
        labels, so a timeline of ``n`` frames and a few events normalises a
        few label sets, not ``n``.

        Args:
            frame_labels: One iterable of labels per frame.

        Returns:
            The compressed event timeline.
        """
        if not frame_labels:
            raise ConfigurationError("frame_labels must not be empty")
        events: List[Event] = []
        previous = frame_labels[0]
        current = as_label_set(previous)
        start = 0
        for index in range(1, len(frame_labels)):
            raw = frame_labels[index]
            if raw == previous:
                continue
            previous = raw
            labels = as_label_set(raw)
            if labels != current:
                events.append(Event(start, index, current))
                start = index
                current = labels
        events.append(Event(start, len(frame_labels), current))
        return cls(events)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> Tuple[Event, ...]:
        """The events of the timeline, in frame order."""
        return self._events

    @property
    def num_frames(self) -> int:
        """Total number of frames covered."""
        return self._num_frames

    @property
    def num_events(self) -> int:
        """Number of (maximal) events."""
        return len(self._events)

    @property
    def object_labels(self) -> Set[str]:
        """The union of all object labels appearing in the timeline."""
        labels: Set[str] = set()
        for event in self._events:
            labels.update(event.labels)
        return labels

    def event_at(self, frame_index: int) -> Event:
        """Return the event containing ``frame_index``."""
        if not 0 <= frame_index < self._num_frames:
            raise ConfigurationError(
                f"frame index {frame_index} outside timeline of {self._num_frames} frames")
        lo, hi = 0, len(self._events) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._starts[mid] <= frame_index:
                lo = mid
            else:
                hi = mid - 1
        return self._events[lo]

    def labels_at(self, frame_index: int) -> LabelSet:
        """Return the ground-truth label set of ``frame_index``."""
        return self.event_at(frame_index).labels

    def frame_labels(self) -> List[LabelSet]:
        """Expand the timeline into one label set per frame."""
        labels: List[LabelSet] = []
        for event in self._events:
            labels.extend([event.labels] * event.num_frames)
        return labels

    def arrays(self) -> "TimelineArrays":
        """The timeline as integer arrays, for array-at-a-time scoring.

        Computed on first use and cached (a timeline is immutable).
        """
        if self._arrays is None:
            ids = {NO_LABEL: 0}
            event_ids = [ids.setdefault(event.labels, len(ids))
                         for event in self._events]
            starts = np.array(self._starts, dtype=np.int64)
            ends = np.append(starts[1:], self._num_frames)
            frame_ids = np.repeat(np.array(event_ids, dtype=np.int64),
                                  ends - starts)
            for array in (starts, ends, frame_ids):
                array.setflags(write=False)
            self._arrays = TimelineArrays(tuple(ids), frame_ids, starts, ends)
        return self._arrays

    def sliced(self, start: int, stop: int) -> "EventTimeline":
        """Return the timeline restricted to frames ``[start, stop)``.

        Frame indices in the result are re-based to start at zero.
        """
        if not 0 <= start < stop <= self._num_frames:
            raise ConfigurationError(
                f"invalid slice [{start}, {stop}) of {self._num_frames} frames")
        events: List[Event] = []
        for event in self._events:
            lo = max(event.start_frame, start)
            hi = min(event.end_frame, stop)
            if lo < hi:
                events.append(Event(lo - start, hi - start, event.labels))
        return EventTimeline(events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventTimeline):
            return NotImplemented
        return self._events == other._events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid only.
        return (f"EventTimeline(num_frames={self._num_frames}, "
                f"num_events={self.num_events}, labels={sorted(self.object_labels)})")
