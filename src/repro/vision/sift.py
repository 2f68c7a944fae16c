"""SIFT-lite: scale-invariant keypoints, descriptors and matching.

The paper's second decode-based baseline matches SIFT features between
consecutive frames and declares an event when the match quality drops.
OpenCV is not available in this environment, so this module implements a
compact but faithful variant of Lowe's pipeline:

* difference-of-Gaussians keypoint detection over a small scale stack,
* 128-dimensional descriptors (4x4 spatial cells x 8 orientation bins of
  Gaussian-weighted gradient histograms),
* nearest-neighbour matching with Lowe's ratio test.

Descriptor extraction is vectorised over all keypoints of a frame, which
keeps the per-frame cost in the low milliseconds for the clip resolutions
used by the experiments — still one to two orders of magnitude more
expensive than I-frame seeking, exactly the cost relationship Table III
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..config import NON_NEGATIVE, POSITIVE, real_number, whole_number
from ..errors import ConfigurationError
from .imageops import gaussian_blur, gradient_magnitude_orientation
from .similarity import ChangeDetector

#: Number of spatial cells per descriptor axis and orientation bins per cell.
_DESCRIPTOR_CELLS = 4
_DESCRIPTOR_BINS = 8
#: Half-width of the descriptor window in pixels.
_WINDOW_RADIUS = 8


@dataclass(frozen=True)
class Keypoint:
    """A detected interest point.

    Attributes:
        row: Vertical position in pixels.
        col: Horizontal position in pixels.
        response: Absolute DoG response (keypoint strength).
        scale: Index of the DoG level the keypoint was detected at.
    """

    row: int
    col: int
    response: float
    scale: int


@dataclass
class FrameFeatures:
    """Keypoints and descriptors of one frame."""

    keypoints: List[Keypoint]
    descriptors: np.ndarray

    @property
    def num_keypoints(self) -> int:
        """Number of keypoints detected."""
        return len(self.keypoints)


class SiftLite:
    """SIFT-like feature extractor and matcher.

    Args:
        num_scales: Number of Gaussian-blur levels in the scale stack.
        base_sigma: Blur of the first level.
        contrast_threshold: Minimum absolute DoG response of a keypoint.
        max_keypoints: Keep only the strongest keypoints per frame.
        ratio_threshold: Lowe's ratio-test threshold for matching.
    """

    def __init__(self, num_scales: int = 4, base_sigma: float = 1.2,
                 contrast_threshold: float = 4.0, max_keypoints: int = 200,
                 ratio_threshold: float = 0.8) -> None:
        # Three levels give two DoG layers, the fewest an extremum needs.
        self.num_scales = whole_number(num_scales, "num_scales", least=3)
        self.max_keypoints = whole_number(max_keypoints, "max_keypoints",
                                          least=1)
        real_number(base_sigma, "base_sigma", **POSITIVE)
        real_number(contrast_threshold, "contrast_threshold", **NON_NEGATIVE)
        real_number(ratio_threshold, "ratio_threshold", above=0, most=1)
        self.base_sigma = base_sigma
        self.contrast_threshold = contrast_threshold
        self.ratio_threshold = ratio_threshold

    # ------------------------------------------------------------------ #
    # Detection
    # ------------------------------------------------------------------ #
    def _scale_stack(self, plane: np.ndarray) -> List[np.ndarray]:
        sigmas = [self.base_sigma * (2.0 ** (level / 2.0))
                  for level in range(self.num_scales)]
        return [gaussian_blur(plane, sigma) for sigma in sigmas]

    def detect(self, plane: np.ndarray) -> List[Keypoint]:
        """Detect DoG extrema in a luma plane."""
        plane = np.asarray(plane, dtype=np.float64)
        if plane.ndim != 2:
            raise ConfigurationError("detect expects a 2-D luma plane")
        stack = self._scale_stack(plane)
        dogs = [stack[level + 1] - stack[level] for level in range(len(stack) - 1)]
        keypoints: List[Keypoint] = []
        margin = _WINDOW_RADIUS + 1
        for scale, current in enumerate(dogs):
            strong = np.abs(current) > self.contrast_threshold
            if not strong.any():
                continue
            # Spatial 3x3 local-extremum test per DoG level (SIFT-lite keeps
            # the scale stack for response strength but does not require
            # extremality across scales, which would need a denser stack).
            is_max = np.ones_like(strong)
            is_min = np.ones_like(strong)
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == 0 and dx == 0:
                        continue
                    shifted = np.roll(np.roll(current, dy, axis=0), dx, axis=1)
                    is_max &= current >= shifted
                    is_min &= current <= shifted
            extrema = strong & (is_max | is_min)
            extrema[:margin, :] = False
            extrema[-margin:, :] = False
            extrema[:, :margin] = False
            extrema[:, -margin:] = False
            rows, cols = np.nonzero(extrema)
            responses = np.abs(current[rows, cols])
            for row, col, response in zip(rows, cols, responses):
                keypoints.append(Keypoint(int(row), int(col), float(response), scale))
        keypoints.sort(key=lambda keypoint: keypoint.response, reverse=True)
        return keypoints[:self.max_keypoints]

    # ------------------------------------------------------------------ #
    # Description
    # ------------------------------------------------------------------ #
    def describe(self, plane: np.ndarray,
                 keypoints: List[Keypoint]) -> np.ndarray:
        """Compute 128-d descriptors for the given keypoints (vectorised)."""
        plane = np.asarray(plane, dtype=np.float64)
        if not keypoints:
            return np.zeros((0, _DESCRIPTOR_CELLS ** 2 * _DESCRIPTOR_BINS))
        magnitude, orientation = gradient_magnitude_orientation(plane)
        radius = _WINDOW_RADIUS
        window = 2 * radius
        offsets = np.arange(-radius, radius)
        rows = np.array([keypoint.row for keypoint in keypoints])[:, None, None]
        cols = np.array([keypoint.col for keypoint in keypoints])[:, None, None]
        row_grid = rows + offsets[None, :, None]
        col_grid = cols + offsets[None, None, :]
        row_grid = np.clip(row_grid, 0, plane.shape[0] - 1)
        col_grid = np.clip(col_grid, 0, plane.shape[1] - 1)
        patch_magnitude = magnitude[row_grid, col_grid]
        patch_orientation = orientation[row_grid, col_grid]
        # Gaussian weighting of the window.
        ys, xs = np.mgrid[-radius:radius, -radius:radius]
        weight = np.exp(-(ys ** 2 + xs ** 2) / (2.0 * (0.5 * window) ** 2))
        weighted = patch_magnitude * weight[None, :, :]
        # Spatial cell and orientation bin of every pixel of every patch.
        cell_size = window // _DESCRIPTOR_CELLS
        cell_row = np.minimum((ys + radius) // cell_size, _DESCRIPTOR_CELLS - 1)
        cell_col = np.minimum((xs + radius) // cell_size, _DESCRIPTOR_CELLS - 1)
        orientation_bin = np.floor(
            patch_orientation / (2.0 * np.pi) * _DESCRIPTOR_BINS).astype(int)
        orientation_bin = np.clip(orientation_bin, 0, _DESCRIPTOR_BINS - 1)
        flat_bin = ((cell_row * _DESCRIPTOR_CELLS + cell_col)[None, :, :]
                    * _DESCRIPTOR_BINS + orientation_bin)
        num_keypoints = len(keypoints)
        descriptor_length = _DESCRIPTOR_CELLS ** 2 * _DESCRIPTOR_BINS
        keypoint_index = np.broadcast_to(
            np.arange(num_keypoints)[:, None, None], flat_bin.shape)
        descriptors = np.zeros((num_keypoints, descriptor_length))
        np.add.at(descriptors, (keypoint_index.ravel(), flat_bin.ravel()),
                  weighted.ravel())
        # Normalise, clip (illumination robustness) and renormalise, as in SIFT.
        norms = np.linalg.norm(descriptors, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        descriptors = np.clip(descriptors / norms, 0, 0.2)
        norms = np.linalg.norm(descriptors, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        return descriptors / norms

    def extract(self, plane: np.ndarray) -> FrameFeatures:
        """Detect keypoints and compute their descriptors in one call."""
        keypoints = self.detect(plane)
        descriptors = self.describe(plane, keypoints)
        return FrameFeatures(keypoints=keypoints, descriptors=descriptors)

    # ------------------------------------------------------------------ #
    # Matching
    # ------------------------------------------------------------------ #
    def match(self, first: FrameFeatures, second: FrameFeatures
              ) -> List[Tuple[int, int, float]]:
        """Match descriptors with a ratio test.

        Returns:
            List of ``(index_in_first, index_in_second, distance)`` matches.
        """
        if first.num_keypoints == 0 or second.num_keypoints == 0:
            return []
        distances = np.linalg.norm(
            first.descriptors[:, None, :] - second.descriptors[None, :, :], axis=2)
        matches: List[Tuple[int, int, float]] = []
        for index in range(first.num_keypoints):
            row = distances[index]
            if row.size == 1:
                best = 0
                if row[best] < 0.7:
                    matches.append((index, int(best), float(row[best])))
                continue
            order = np.argpartition(row, 1)[:2]
            best, runner_up = order[np.argsort(row[order])]
            if row[best] <= self.ratio_threshold * row[runner_up]:
                matches.append((index, int(best), float(row[best])))
        return matches

    def match_fraction(self, first: FrameFeatures, second: FrameFeatures) -> float:
        """Fraction of the first frame's keypoints matched in the second."""
        if first.num_keypoints == 0:
            return 1.0
        return len(self.match(first, second)) / first.num_keypoints


class SiftChangeDetector(ChangeDetector):
    """Change detector based on SIFT-lite feature matching.

    The change score of a frame pair is ``1 - matched_fraction`` where the
    matched fraction counts previous-frame keypoints that found a ratio-test
    match in the current frame; an entering or leaving object removes or
    occludes keypoints and therefore raises the score.
    """

    name = "sift"

    def __init__(self, sift: Optional[SiftLite] = None) -> None:
        self.sift = sift or SiftLite()
        self._previous_features: Optional[FrameFeatures] = None

    def reset(self) -> None:
        self._previous_features = None

    def score_next(self, current: np.ndarray) -> float:
        features = self.sift.extract(np.asarray(current, dtype=np.float64))
        previous = self._previous_features
        self._previous_features = features
        if previous is None:
            return float("inf")
        return 1.0 - self.sift.match_fraction(previous, features)
