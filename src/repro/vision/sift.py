"""SIFT-lite: the paper's second decode-based baseline, as array code.

The baseline matches SIFT features between consecutive frames and
declares an event when the match quality drops.  OpenCV is not available
in this environment, so this module implements a compact but faithful
variant of Lowe's pipeline in numpy alone:

* difference-of-Gaussians keypoint detection over a four-level scale
  stack (each level two matrix products, see
  :func:`~repro.vision.imageops.gaussian_blur`),
* 128-dimensional descriptors (4x4 spatial cells x 8 orientation bins of
  Gaussian-weighted gradient histograms),
* nearest-neighbour matching with Lowe's ratio test, its candidates
  ranked by one matrix product per frame pair.

Every step works on the arrays of a whole frame.  On 2-core x86-64 it
scores the 1,200 decoded 128x72 frames of
``examples/event_detection_comparison.py`` at about 530 frames a second
(2.3 s), against about 60,000 for the MSE baseline; Table III's I-frame
seeker reads only container metadata.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .imageops import gaussian_blur, gradient_magnitude_orientation
from .similarity import ChangeDetector

#: The scale stack: ``base sigma * 2 ** (level / 2)`` for four levels.
_SIGMAS = tuple(1.2 * (2.0 ** (level / 2.0)) for level in range(4))
#: Minimum absolute DoG response of a keypoint.
_CONTRAST_THRESHOLD = 4.0
#: The strongest keypoints kept per frame.
_MAX_KEYPOINTS = 200
#: Lowe's ratio test, and the distance a lone candidate must stay under.
_RATIO_THRESHOLD = 0.8
_LONE_MATCH_DISTANCE = 0.7
#: Number of spatial cells per descriptor axis and orientation bins per cell.
_DESCRIPTOR_CELLS = 4
_DESCRIPTOR_BINS = 8
#: Half-width of the descriptor window in pixels.
_WINDOW_RADIUS = 8


def _window_bins() -> Tuple[np.ndarray, np.ndarray]:
    """The descriptor window's Gaussian weights, and each pixel's spatial
    cell as its first histogram bin."""
    radius = _WINDOW_RADIUS
    ys, xs = np.mgrid[-radius:radius, -radius:radius]
    weight = np.exp(-(ys ** 2 + xs ** 2) / (2.0 * radius ** 2))
    cell_size = 2 * radius // _DESCRIPTOR_CELLS
    cell = (ys + radius) // cell_size * _DESCRIPTOR_CELLS + (xs + radius) // cell_size
    return weight, cell * _DESCRIPTOR_BINS


_WINDOW_WEIGHT, _CELL_BIN = _window_bins()


def _scale_stack(plane: np.ndarray) -> np.ndarray:
    """The ``(4, H, W)`` Gaussian scale stack of a luma plane."""
    return np.stack([gaussian_blur(plane, sigma) for sigma in _SIGMAS])


def _keypoints(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and responses of the strongest DoG extrema.

    An extremum is a sample of a DoG level whose absolute response exceeds
    the contrast threshold and which is ``>=`` (or ``<=``) its eight
    neighbours on its own level (extremality across levels would need a
    denser stack).  Only samples a descriptor window fits around are
    tested.  The strongest are kept, ties in level-then-row-major order.
    """
    margin = _WINDOW_RADIUS + 1
    height, width = stack.shape[1:]
    if height <= 2 * margin or width <= 2 * margin:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, np.zeros(0)
    dogs = stack[1:] - stack[:-1]
    centre = dogs[:, margin:height - margin, margin:width - margin]
    is_max = np.abs(centre) > _CONTRAST_THRESHOLD
    is_min = is_max.copy()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy or dx:
                neighbour = dogs[:, margin + dy:height - margin + dy,
                                 margin + dx:width - margin + dx]
                is_max &= centre >= neighbour
                is_min &= centre <= neighbour
    levels, rows, cols = np.nonzero(is_max | is_min)
    responses = np.abs(centre[levels, rows, cols])
    strongest = np.argsort(-responses, kind="stable")[:_MAX_KEYPOINTS]
    return rows[strongest] + margin, cols[strongest] + margin, responses[strongest]


def _descriptors(plane: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray) -> np.ndarray:
    """``(K, 128)`` unit descriptors of the keypoints at ``rows, cols``."""
    length = _DESCRIPTOR_CELLS ** 2 * _DESCRIPTOR_BINS
    if not len(rows):
        return np.zeros((0, length))
    magnitude, orientation = gradient_magnitude_orientation(plane)
    window = (2 * _WINDOW_RADIUS,) * 2
    corner = (rows - _WINDOW_RADIUS, cols - _WINDOW_RADIUS)
    weighted = np.lib.stride_tricks.sliding_window_view(
        magnitude, window)[corner] * _WINDOW_WEIGHT
    patch_orientation = np.lib.stride_tricks.sliding_window_view(
        orientation, window)[corner]
    orientation_bin = np.floor(
        patch_orientation / (2.0 * np.pi) * _DESCRIPTOR_BINS).astype(int)
    orientation_bin = np.clip(orientation_bin, 0, _DESCRIPTOR_BINS - 1)
    bins = (np.arange(len(rows))[:, None, None] * length + _CELL_BIN
            + orientation_bin)
    descriptors = np.bincount(bins.ravel(), weights=weighted.ravel(),
                              minlength=len(rows) * length
                              ).reshape(len(rows), length)
    # Normalise, clip (illumination robustness) and renormalise, as in SIFT.
    norms = np.linalg.norm(descriptors, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    descriptors = np.clip(descriptors / norms, 0, 0.2)
    norms = np.linalg.norm(descriptors, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return descriptors / norms


def _matched(first: np.ndarray, second: np.ndarray) -> int:
    """How many of ``first``'s descriptors pass the ratio test in
    ``second``: the nearest is at most 0.8 times as far as the runner-up
    (under 0.7 away when it is the only candidate).

    One matrix product ranks every candidate (``|b|² - 2 a·b`` orders a
    row as the squared distance does); the two nearest of each row are
    then measured exactly, so a descriptor seen twice stays at distance 0.
    """
    nearest = np.argpartition(
        (second * second).sum(axis=1) - 2.0 * first @ second.T,
        min(1, len(second) - 1), axis=1)[:, :2]
    distances = np.linalg.norm(first[:, None, :] - second[nearest], axis=2)
    if len(second) == 1:
        return int((distances[:, 0] < _LONE_MATCH_DISTANCE).sum())
    distances.sort(axis=1)
    return int((distances[:, 0] <= _RATIO_THRESHOLD * distances[:, 1]).sum())


class SiftChangeDetector(ChangeDetector):
    """Change detector based on SIFT-lite feature matching.

    The change score of a frame pair is ``1 - matched_fraction`` where the
    matched fraction counts previous-frame keypoints that found a ratio-test
    match in the current frame (1 when the previous frame has none); an
    entering or leaving object removes or occludes keypoints and therefore
    raises the score.
    """

    name = "sift"

    def __init__(self) -> None:
        self._previous: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._previous = None

    def score_next(self, current: np.ndarray) -> float:
        plane = np.asarray(current, dtype=np.float64)
        if plane.ndim != 2:
            raise ConfigurationError("SIFT scores 2-D luma planes")
        rows, cols, _ = _keypoints(_scale_stack(plane))
        descriptors = _descriptors(plane, rows, cols)
        previous, self._previous = self._previous, descriptors
        if previous is None:
            return float("inf")
        if not len(previous):
            return 0.0
        if not len(descriptors):
            return 1.0
        return 1.0 - _matched(previous, descriptors) / len(previous)
