"""The I-frame seeker: SiEVE's cheap event-detection front end.

"We note that the I-frame seeker is not actually decoding each frame in the
video but instead it searches through the video metadata and drops every
frame that is not of type I-frame." (Section III)

The seeker therefore reads only a serialised container's frame index —
frame types, offsets and sizes — and returns the I-frames' index entries
without any pixel work.  Its per-frame cost is what gives SiEVE the 100x+
event-detection speedup of Table III.  An in-memory :class:`EncodedVideo`
answers the same question with ``keyframe_indices`` / ``iter_keyframes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..config import whole_number
from ..errors import BitstreamError
from ..video.raw_video import VideoMetadata
from .bitstream import FrameIndexEntry, read_frame_index


@dataclass
class SeekResult:
    """Outcome of one I-frame seeking pass.

    Attributes:
        keyframe_indices: Indices of the frames that passed the seeker.
        frames_scanned: Total number of index entries examined.
        keyframe_bytes: Total payload size of the selected I-frames.
        total_bytes: Total payload size of the scanned video.
    """

    keyframe_indices: List[int]
    frames_scanned: int
    keyframe_bytes: int
    total_bytes: int


class IFrameSeeker:
    """Extracts I-frames from serialised videos using metadata only."""

    def seek_serialized(self, data: bytes
                        ) -> Tuple[VideoMetadata, List[FrameIndexEntry], SeekResult]:
        """Seek I-frames in a serialised container without reading payloads.

        Args:
            data: Bytes of a serialised :class:`EncodedVideo`.

        Returns:
            The video metadata, the index entries of the I-frames, and the
            seek statistics.

        Raises:
            BitstreamError: If the container is malformed.
        """
        metadata, entries = read_frame_index(data)
        keyframes = [entry for entry in entries if entry.is_keyframe]
        result = SeekResult(
            keyframe_indices=[entry.index for entry in keyframes],
            frames_scanned=len(entries),
            keyframe_bytes=sum(entry.size_bytes for entry in keyframes),
            total_bytes=sum(entry.size_bytes for entry in entries),
        )
        return metadata, keyframes, result


def select_events_from_keyframes(keyframe_indices: Sequence[int],
                                 num_frames: int) -> List[Tuple[int, int]]:
    """Partition a video into segments induced by its I-frames.

    Every segment starts at an I-frame and extends to the frame before the
    next one; downstream, all frames of a segment inherit the labels detected
    on its leading I-frame.

    Args:
        keyframe_indices: Sorted I-frame indices (must start at 0).
        num_frames: Total number of frames in the video.

    Returns:
        List of ``(start_frame, end_frame_exclusive)`` segments.

    Raises:
        BitstreamError: If an index or ``num_frames`` is not a whole number
            (``2.5`` would silently become frame 2), an index lies outside
            ``[0, num_frames)`` (it would yield an inverted segment), or
            the first I-frame is not frame 0.
    """
    num_frames = whole_number(num_frames, "num_frames", BitstreamError, 0)
    indices = sorted({whole_number(index, "keyframe index", BitstreamError)
                      for index in keyframe_indices})
    if not indices:
        return [(0, num_frames)] if num_frames else []
    if indices[0] < 0 or indices[-1] >= num_frames:
        raise BitstreamError(
            f"keyframe indices must lie in [0, {num_frames}), got "
            f"{indices[0]}..{indices[-1]}")
    if indices[0] != 0:
        raise BitstreamError("the first keyframe of a video must be frame 0")
    bounds = indices + [num_frames]
    return list(zip(bounds, bounds[1:]))
