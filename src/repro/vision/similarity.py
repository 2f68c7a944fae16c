"""Common interface for decode-based change detectors (the paper's baselines).

NoScope-style filtering decodes every frame, computes an image-similarity
signal between consecutive frames (MSE, SIFT matching), and forwards a frame
to the NN only when the signal crosses a threshold.  This module defines the
shared machinery:

* :class:`ChangeDetector` — streaming change score of each frame against
  the previous one (higher = more change);
* :func:`score_video` — the change-score series of a whole video;
* :class:`ThresholdSampler` — converts a score series + threshold into the
  set of sampled frame indices;
* :func:`threshold_for_sampling_fraction` — picks the threshold that yields a
  target sampling rate, which is how the paper matches the baselines'
  sampling rate to SiEVE's ("We tune the thresholds for other approaches to
  give the same sampling rate as SiEVE").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from ..config import real_number
from ..errors import ConfigurationError
from ..video.raw_video import VideoSource
from .imageops import to_grayscale


class ChangeDetector:
    """Base class for streaming change detectors.

    Subclasses implement :meth:`score_next`, which scores each frame
    against the previous one (higher = more change; the first frame after
    a :meth:`reset` scores ``inf``), keeping whatever per-stream state
    they need (the previous plane, its cached features) in between; or
    they override :meth:`score_planes` and score a whole stream at once.
    """

    #: Human-readable name used in experiment tables.
    name: str = "change"

    def reset(self) -> None:
        """Clear the per-stream state."""
        raise NotImplementedError

    def score_next(self, current: np.ndarray) -> float:
        """Score a luma plane against the previous one."""
        raise NotImplementedError

    def score_planes(self, planes: Iterable[np.ndarray]) -> List[float]:
        """Scores of a whole stream of luma planes, from a :meth:`reset`.

        Plane by plane here; a detector that can score consecutive planes
        together overrides it.
        """
        self.reset()
        return [self.score_next(plane) for plane in planes]


def score_video(detector: ChangeDetector, video: VideoSource) -> List[float]:
    """Compute the change-score series of a video (first frame scores ``inf``).

    Grayscale frames are scored as their planes, colour frames by their
    float luma.
    """
    return detector.score_planes(
        frame.data if frame.data.ndim == 2 else to_grayscale(frame.data)
        for frame in video.frames())


@dataclass
class ThresholdSampler:
    """Convert a change-score series into sampled frame indices.

    A frame is sampled when its change score strictly exceeds ``threshold``;
    the first frame of a video is always sampled (its score is infinite).

    Attributes:
        threshold: Change-score threshold, a real number; ``±inf`` are
            legal (``inf`` samples only the first frame), NaN is not.
    """

    threshold: float

    def __post_init__(self) -> None:
        real_number(self.threshold, "threshold", least=-math.inf)

    def sample(self, scores: Sequence[float]) -> List[int]:
        """Indices of the frames whose score exceeds the threshold."""
        return [index for index, score in enumerate(scores)
                if index == 0 or score > self.threshold]


def threshold_for_sampling_fraction(scores: Sequence[float],
                                    fraction: float) -> float:
    """Find the threshold whose sampling rate best matches ``fraction``.

    The search is over the observed score values (plus infinity), so the
    returned threshold always realises one of the achievable sampling rates;
    the one closest to the target is chosen (the lowest such threshold on a
    tie).  A threshold samples the first frame plus every later score above
    it, so all candidates are counted with one sort.

    Args:
        scores: Change-score series of the training video.
        fraction: Target fraction of sampled frames in ``(0, 1]``.

    Returns:
        The selected threshold.
    """
    real_number(fraction, "fraction", above=0, most=1)
    values = np.asarray(scores, dtype=np.float64)
    if values.size == 0:
        raise ConfigurationError("scores must not be empty")
    # Distinct values by sort + neighbour compare rather than np.unique,
    # whose first call alone adds ~1.2 MB to the process's resident memory.
    finite = np.sort(values[np.isfinite(values)])
    distinct = np.ones(finite.size, dtype=bool)
    np.not_equal(finite[1:], finite[:-1], out=distinct[1:])
    candidates = np.append(finite[distinct], np.inf)
    later = values[1:]
    later = np.sort(later[~np.isnan(later)])  # nan exceeds no threshold
    counts = 1 + later.size - np.searchsorted(later, candidates, side="right")
    errors = np.abs(counts / values.size - fraction)
    return float(candidates[errors.argmin()])
