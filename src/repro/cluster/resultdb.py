"""Result database of per-frame object labels.

"The cloud engine ... stores the result in a database.  The results are in
the form of a list of tuples where each tuple consists of frame ID and the
object names that appear in the frame." (Section III)

:class:`ResultDatabase` is that store: an in-memory dict keyed by
``(video, frame)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..config import whole_number
from ..errors import ClusterError
from ..video.events import LabelSet, as_label_set


@dataclass(frozen=True)
class ResultRecord:
    """One detection result row.

    Attributes:
        video_name: Source video.
        frame_index: Frame the labels belong to.
        labels: Detected object labels.
    """

    video_name: str
    frame_index: int
    labels: LabelSet


class ResultDatabase:
    """Append-only store of ``(video, frame, labels)`` detection results."""

    def __init__(self) -> None:
        self._records: Dict[Tuple[str, int], ResultRecord] = {}

    def record(self, video_name: str, frame_index: int,
               labels: Iterable[str]) -> ResultRecord:
        """Insert (or overwrite) the labels of one frame.

        Raises:
            ClusterError: ``video_name`` is not a ``str``, ``frame_index`` is
                not a non-negative integer (``bool``, ``float`` and ``str``
                are refused rather than coerced), or ``labels`` is a bare
                ``str`` (which would otherwise be split into characters).
        """
        if not isinstance(video_name, str):
            raise ClusterError(f"video_name must be a str, "
                               f"got {type(video_name).__name__}")
        if isinstance(frame_index, float):  # even a whole one
            raise ClusterError(
                f"frame_index must be an integer, got {frame_index!r}")
        frame_index = whole_number(frame_index, "frame_index", ClusterError, 0)
        if isinstance(labels, str):
            raise ClusterError(f"labels must be an iterable of label names, "
                               f"got the bare str {labels!r}")
        row = ResultRecord(video_name=video_name, frame_index=frame_index,
                           labels=as_label_set(labels))
        self._records[(video_name, row.frame_index)] = row
        return row

    def records_for_video(self, video_name: str) -> List[ResultRecord]:
        """All rows of one video, ordered by frame index."""
        rows = [row for (name, _), row in self._records.items() if name == video_name]
        return sorted(rows, key=lambda row: row.frame_index)

    def __len__(self) -> int:
        return len(self._records)
