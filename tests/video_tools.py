"""Test-side builders and views of videos and timelines.

No shipping run shifts a plane, builds a clip from bare arrays or expands
a timeline frame by frame: the program renders its clips
(``repro.video.synthetic``), searches motion on padded views
(``repro.codec.motion``) and scores timelines as arrays
(``EventTimeline.arrays``).  The suite writes its cases with these.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.video.events import EventTimeline, LabelSet
from repro.video.frame import Frame, Resolution
from repro.video.raw_video import RawVideo, VideoMetadata


def shift_plane(plane, dy, dx):
    """Shift a plane by ``(dy, dx)`` with edge replication.

    A positive ``dy`` moves content downwards, i.e. the value at ``(y, x)``
    of the result is the value at ``(y - dy, x - dx)`` of the input clamped
    to the frame.
    """
    height, width = plane.shape
    ys = np.clip(np.arange(height) - dy, 0, height - 1)
    xs = np.clip(np.arange(width) - dx, 0, width - 1)
    return plane[np.ix_(ys, xs)]


def video_from_arrays(name: str, arrays: Sequence[np.ndarray],
                      fps: float = 30.0,
                      timeline: Optional[EventTimeline] = None) -> RawVideo:
    """A :class:`RawVideo` of per-frame pixel arrays of one shape."""
    if not arrays:
        raise ConfigurationError("arrays must not be empty")
    frames = [Frame(index=index, data=np.asarray(array),
                    timestamp=index / fps)
              for index, array in enumerate(arrays)]
    height, width = frames[0].data.shape[:2]
    if any(frame.data.shape[:2] != (height, width) for frame in frames):
        raise ConfigurationError("all frames must share one resolution")
    metadata = VideoMetadata(name=name, resolution=Resolution(width, height),
                             fps=fps, num_frames=len(frames))
    return RawVideo(metadata, frames, timeline)


def frame_labels(timeline: EventTimeline) -> List[LabelSet]:
    """The timeline expanded into one label set per frame."""
    labels: List[LabelSet] = []
    for event in timeline:
        labels.extend([event.labels] * (event.end_frame - event.start_frame))
    return labels
