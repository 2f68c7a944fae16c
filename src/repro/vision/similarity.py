"""Common interface for decode-based change detectors (the paper's baselines).

NoScope-style filtering decodes every frame, computes an image-similarity
signal between consecutive frames (MSE, SIFT matching), and forwards a frame
to the NN only when the signal crosses a threshold.  This module defines the
shared machinery:

* :class:`ChangeDetector` — per-frame-pair change score (higher = more
  change);
* :func:`score_video` — the change-score series of a whole video;
* :class:`ThresholdSampler` — converts a score series + threshold into the
  set of sampled frame indices;
* :func:`threshold_for_sampling_fraction` — picks the threshold that yields a
  target sampling rate, which is how the paper matches the baselines'
  sampling rate to SiEVE's ("We tune the thresholds for other approaches to
  give the same sampling rate as SiEVE").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..video.raw_video import VideoSource
from .imageops import to_grayscale


class ChangeDetector:
    """Base class for frame-pair change detectors.

    Subclasses implement :meth:`score_pair`; higher scores mean the two
    frames differ more.  Detectors may keep per-stream state (e.g. cached
    features of the previous frame) between :meth:`score_next` calls;
    :meth:`reset` clears it.
    """

    #: Human-readable name used in experiment tables.
    name: str = "change"

    def reset(self) -> None:
        """Clear any per-stream state."""

    def score_pair(self, previous: np.ndarray, current: np.ndarray) -> float:
        """Change score between two luma planes (higher = more change)."""
        raise NotImplementedError

    def score_next(self, current: np.ndarray) -> float:
        """Streaming interface: score the next frame against the previous one.

        The default implementation simply remembers the previous plane and
        delegates to :meth:`score_pair`; detectors with expensive per-frame
        features override this to cache them.
        """
        if not hasattr(self, "_previous_plane"):
            self._previous_plane: Optional[np.ndarray] = None
        previous = self._previous_plane
        self._previous_plane = current
        if previous is None:
            return float("inf")
        return self.score_pair(previous, current)


def score_video(detector: ChangeDetector, video: VideoSource) -> List[float]:
    """Compute the change-score series of a video (first frame scores ``inf``)."""
    detector.reset()
    if hasattr(detector, "_previous_plane"):
        detector._previous_plane = None
    scores: List[float] = []
    for frame in video.frames():
        scores.append(detector.score_next(to_grayscale(frame.data)))
    return scores


@dataclass
class ThresholdSampler:
    """Convert a change-score series into sampled frame indices.

    A frame is sampled when its change score strictly exceeds ``threshold``;
    the first frame of a video is always sampled (its score is infinite).
    ``min_interval`` optionally rate-limits sampling, mirroring the encoder's
    minimum key-frame interval.

    Attributes:
        threshold: Change-score threshold.
        min_interval: Minimum distance between two sampled frames.
    """

    threshold: float
    min_interval: int = 1

    def __post_init__(self) -> None:
        if self.min_interval < 1:
            raise ConfigurationError("min_interval must be >= 1")

    def sample(self, scores: Sequence[float]) -> List[int]:
        """Indices of the frames whose score exceeds the threshold."""
        sampled: List[int] = []
        last = None
        for index, score in enumerate(scores):
            if index == 0 or score > self.threshold:
                if last is None or index - last >= self.min_interval or index == 0:
                    sampled.append(index)
                    last = index
        return sampled


def threshold_for_sampling_fraction(scores: Sequence[float], fraction: float,
                                    min_interval: int = 1) -> float:
    """Find the threshold whose sampling rate best matches ``fraction``.

    The search is over the observed score values (plus infinity), so the
    returned threshold always realises one of the achievable sampling rates;
    the one closest to the target is chosen (the lowest such threshold on a
    tie).  Without a rate limit a threshold samples the first frame plus
    every later score above it, so all candidates are counted with one sort;
    ``min_interval > 1`` replays the sampler per candidate.

    Args:
        scores: Change-score series of the training video.
        fraction: Target fraction of sampled frames in ``(0, 1]``.
        min_interval: Rate limit passed to the sampler.

    Returns:
        The selected threshold.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    values = np.asarray(scores, dtype=np.float64)
    if values.size == 0:
        raise ConfigurationError("scores must not be empty")
    # Distinct values by sort + neighbour compare rather than np.unique,
    # whose first call alone adds ~1.2 MB to the process's resident memory.
    finite = np.sort(values[np.isfinite(values)])
    distinct = np.ones(finite.size, dtype=bool)
    np.not_equal(finite[1:], finite[:-1], out=distinct[1:])
    candidates = np.append(finite[distinct], np.inf)
    if min_interval == 1:
        later = values[1:]
        later = np.sort(later[~np.isnan(later)])  # nan exceeds no threshold
        counts = 1 + later.size - np.searchsorted(later, candidates, side="right")
    else:
        counts = np.array([
            len(ThresholdSampler(threshold, min_interval).sample(scores))
            for threshold in candidates.tolist()])
    errors = np.abs(counts / values.size - fraction)
    return float(candidates[errors.argmin()])


def sampled_fraction(scores: Sequence[float], threshold: float,
                     min_interval: int = 1) -> float:
    """Sampling rate achieved by a threshold on a score series."""
    sampler = ThresholdSampler(threshold=threshold, min_interval=min_interval)
    return len(sampler.sample(scores)) / len(scores)
