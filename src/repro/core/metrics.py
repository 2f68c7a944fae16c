"""Evaluation metrics for event detection (Section IV and V-A of the paper).

The paper scores an encoder configuration (or a baseline change detector) by
three quantities:

* **accuracy** (``acc_i``) — per-frame object-label accuracy when every
  sampled frame is labelled by the reference NN and every other frame
  inherits the labels of the most recent sampled frame;
* **filtering rate** (``fr_i``) — the fraction of frames that are *not*
  sampled (the paper also reports its complement, the sample size *SS*);
* **F1 score** — the harmonic mean of accuracy and filtering rate, used by
  the offline tuner to pick the best configuration.

Two accuracy variants are provided.  :func:`propagation_accuracy` is the
per-frame label accuracy actually used in the evaluation (Figure 3,
Table II).  :func:`event_start_accuracy` is the formulation of Section IV
(each event contributes the fraction of its frames from the event start to
its first I-frame); the two coincide when every event contains at least one
sampled frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..video.events import EventTimeline


def _validate_samples(sample_indices: Iterable[int],
                      num_frames: int) -> np.ndarray:
    """Sorted, de-duplicated ``int64`` frame indices, all in range.

    Raises:
        ConfigurationError: If an index is not a whole number (``1.5``,
            ``nan``, ``"x"``, ``None``) or lies outside ``[0, num_frames)``.
    """
    def malformed() -> ConfigurationError:
        return ConfigurationError(
            f"sample indices must be a flat sequence of whole frame numbers, "
            f"got {sample_indices!r}")

    try:
        if not isinstance(sample_indices, (np.ndarray, list, tuple)):
            sample_indices = list(sample_indices)
        indices = np.asarray(sample_indices)
    except (TypeError, ValueError):  # not iterable / ragged nesting
        raise malformed() from None
    if indices.size == 0:
        return np.empty(0, dtype=np.int64)
    kind = indices.dtype.kind
    if indices.ndim != 1 or kind not in "biuf":
        raise malformed()
    # ``int(1.5)`` would silently score frame 1; nan/inf have no frame.
    if kind == "f" and not (np.isfinite(indices).all()
                            and (indices == np.floor(indices)).all()):
        raise malformed()
    indices = np.unique(indices.astype(np.int64))
    if indices[0] < 0 or indices[-1] >= num_frames:
        raise ConfigurationError(
            f"sample indices must lie in [0, {num_frames}), got "
            f"{indices[0]}..{indices[-1]}")
    return indices


def _propagated_ids(timeline: EventTimeline, indices: np.ndarray) -> np.ndarray:
    """Per-frame label id under propagation from validated ``indices``.

    Every frame takes the id of the most recent sample at or before it
    (``searchsorted`` finds that sample for all frames at once); frames
    before the first sample take id 0, the background.
    """
    frame_ids = timeline.arrays().frame_ids
    sampled_ids = np.concatenate(([0], frame_ids[indices]))
    latest = np.searchsorted(indices, np.arange(timeline.num_frames),
                             side="right")
    return sampled_ids[latest]


def _first_sample_offsets(timeline: EventTimeline, indices: np.ndarray):
    """Per event: is any validated sample inside it, and how late is the first.

    Returns ``(inside, offsets)``; ``offsets`` is meaningful where
    ``inside`` holds.
    """
    arrays = timeline.arrays()
    # One sentinel past the last frame keeps the lookup valid for events
    # that start after the last sample (and reads as "not inside").
    padded = np.append(indices, timeline.num_frames)
    first = padded[np.searchsorted(indices, arrays.starts, side="left")]
    return first < arrays.ends, first - arrays.starts


def _propagation_accuracy(timeline: EventTimeline, indices: np.ndarray) -> float:
    correct = np.count_nonzero(
        _propagated_ids(timeline, indices) == timeline.arrays().frame_ids)
    return int(correct) / timeline.num_frames


def _event_start_accuracy(timeline: EventTimeline, indices: np.ndarray) -> float:
    arrays = timeline.arrays()
    inside, offsets = _first_sample_offsets(timeline, indices)
    wrong = np.where(inside, offsets, arrays.ends - arrays.starts).sum()
    return 1.0 - int(wrong) / timeline.num_frames


def propagation_accuracy(timeline: EventTimeline,
                         sample_indices: Sequence[int]) -> float:
    """Per-frame label accuracy under label propagation from sampled frames."""
    return _propagation_accuracy(
        timeline, _validate_samples(sample_indices, timeline.num_frames))


def event_start_accuracy(timeline: EventTimeline,
                         sample_indices: Sequence[int]) -> float:
    """Accuracy as defined in Section IV of the paper.

    Every event contributes its full frame count when it starts with a
    sampled frame; otherwise the frames from the event start until the first
    sampled frame inside the event (or the whole event, if it contains no
    sample) are counted as wrong.
    """
    return _event_start_accuracy(
        timeline, _validate_samples(sample_indices, timeline.num_frames))


def f1_score(accuracy: float, filtering: float) -> float:
    """Harmonic mean of accuracy and filtering rate (Section IV)."""
    if accuracy < 0 or filtering < 0:
        raise ConfigurationError("accuracy and filtering rate must be non-negative")
    if accuracy + filtering == 0:
        return 0.0
    return 2.0 * accuracy * filtering / (accuracy + filtering)


@dataclass(frozen=True)
class DetectionScore:
    """Full score of one event-detection configuration.

    Attributes:
        accuracy: Per-frame label accuracy (propagation variant).
        event_accuracy: Section-IV accuracy variant.
        sampling_fraction: Fraction of frames sampled (*SS*).
        filtering_rate: Fraction of frames filtered (``fr``).
        f1: Harmonic mean of accuracy and filtering rate.
        num_samples: Number of sampled frames.
        num_frames: Total number of frames.
    """

    accuracy: float
    event_accuracy: float
    sampling_fraction: float
    filtering_rate: float
    f1: float
    num_samples: int
    num_frames: int

    def as_dict(self) -> Dict[str, float]:
        """Plain-dictionary view (used by the experiment tables)."""
        return {
            "accuracy": self.accuracy,
            "event_accuracy": self.event_accuracy,
            "sampling_fraction": self.sampling_fraction,
            "filtering_rate": self.filtering_rate,
            "f1": self.f1,
            "num_samples": float(self.num_samples),
            "num_frames": float(self.num_frames),
        }


def evaluate_sampling(timeline: EventTimeline,
                      sample_indices: Sequence[int]) -> DetectionScore:
    """Score a set of sampled frame indices against the ground truth.

    Args:
        timeline: Ground-truth event timeline.
        sample_indices: Indices of frames that undergo NN inference (for
            SiEVE these are the I-frames; for the baselines, the frames whose
            change signal crossed the threshold).

    Returns:
        The full :class:`DetectionScore`.
    """
    indices = _validate_samples(sample_indices, timeline.num_frames)
    accuracy = _propagation_accuracy(timeline, indices)
    event_acc = _event_start_accuracy(timeline, indices)
    fraction = len(indices) / timeline.num_frames
    filtering = 1.0 - fraction
    return DetectionScore(
        accuracy=accuracy,
        event_accuracy=event_acc,
        sampling_fraction=fraction,
        filtering_rate=filtering,
        f1=f1_score(accuracy, filtering),
        num_samples=len(indices),
        num_frames=timeline.num_frames,
    )
