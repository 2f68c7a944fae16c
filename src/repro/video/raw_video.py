"""Uncompressed video containers.

A :class:`RawVideo` is a sequence of :class:`~repro.video.frame.Frame`
objects plus :class:`VideoMetadata`.  Two flavours are provided:

* :class:`RawVideo` — frames materialised in memory (used by tests and short
  clips).
* :class:`FrameSource` protocol / :class:`GeneratedVideo` — frames produced
  lazily by a callable, so experiment-scale videos never hold every frame in
  memory at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..config import POSITIVE, real_number, whole_number
from ..errors import ConfigurationError
from .events import EventTimeline
from .frame import Frame, Resolution


@dataclass(frozen=True)
class VideoMetadata:
    """Descriptive metadata of a video.

    Attributes:
        name: Human-readable identifier (dataset or camera name).
        resolution: Frame resolution.
        fps: Frames per second.
        num_frames: Total number of frames.
    """

    name: str
    resolution: Resolution
    fps: float
    num_frames: int
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        real_number(self.fps, "fps", **POSITIVE)
        whole_number(self.num_frames, "num_frames", least=1)

    def timestamp_of(self, frame_index: int) -> float:
        """Presentation timestamp of ``frame_index`` in seconds."""
        return frame_index / self.fps


class VideoSource:
    """Abstract base for anything that can stream frames in index order."""

    metadata: VideoMetadata

    def frames(self) -> Iterator[Frame]:
        """Yield frames in presentation order."""
        raise NotImplementedError

    def frame(self, index: int) -> Frame:
        """Random access to a single frame (may be slow for generated video)."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Frame]:
        return self.frames()

    def __len__(self) -> int:
        return self.metadata.num_frames


class RawVideo(VideoSource):
    """A fully materialised uncompressed video.

    Args:
        metadata: Video metadata; ``num_frames`` must match ``frames``.
        frames: Frames in presentation order.
        timeline: Optional ground-truth event timeline.
    """

    def __init__(self, metadata: VideoMetadata, frames: Sequence[Frame],
                 timeline: Optional[EventTimeline] = None) -> None:
        frames = list(frames)
        if len(frames) != metadata.num_frames:
            raise ConfigurationError(
                f"metadata says {metadata.num_frames} frames but got {len(frames)}")
        for position, frame in enumerate(frames):
            if frame.index != position:
                raise ConfigurationError(
                    f"frame at position {position} has index {frame.index}")
        if timeline is not None and timeline.num_frames != metadata.num_frames:
            raise ConfigurationError(
                "timeline length does not match the number of frames")
        self.metadata = metadata
        self._frames = frames
        self.timeline = timeline

    def frames(self) -> Iterator[Frame]:
        return iter(self._frames)

    def frame(self, index: int) -> Frame:
        if not 0 <= index < len(self._frames):
            raise ConfigurationError(
                f"frame index {index} out of range [0, {len(self._frames)})")
        return self._frames[index]


class GeneratedVideo(VideoSource):
    """A lazily generated video backed by a frame-producing callable.

    Args:
        metadata: Video metadata.
        frame_fn: Callable mapping a frame index to a pixel array.
        timeline: Optional ground-truth event timeline.
        cache_last: Keep the most recently generated frame cached, which makes
            the common encode pattern (sequential access with one-frame
            lookback) cheap.
    """

    def __init__(self, metadata: VideoMetadata,
                 frame_fn: Callable[[int], np.ndarray],
                 timeline: Optional[EventTimeline] = None,
                 cache_last: bool = True) -> None:
        if timeline is not None and timeline.num_frames != metadata.num_frames:
            raise ConfigurationError(
                "timeline length does not match the number of frames")
        self.metadata = metadata
        self.timeline = timeline
        self._frame_fn = frame_fn
        self._cache_last = cache_last
        self._cached: Optional[Frame] = None

    def frame(self, index: int) -> Frame:
        if not 0 <= index < self.metadata.num_frames:
            raise ConfigurationError(
                f"frame index {index} out of range [0, {self.metadata.num_frames})")
        if self._cached is not None and self._cached.index == index:
            return self._cached
        frame = Frame(index=index, data=self._frame_fn(index),
                      timestamp=self.metadata.timestamp_of(index))
        if self._cache_last:
            self._cached = frame
        return frame

    def frames(self) -> Iterator[Frame]:
        for index in range(self.metadata.num_frames):
            yield self.frame(index)

    def materialise(self) -> RawVideo:
        """Render every frame into memory and return a :class:`RawVideo`."""
        return RawVideo(self.metadata, list(self.frames()), self.timeline)
