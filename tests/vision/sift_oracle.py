"""The SIFT baseline as it first ran: the oracle of ``repro.vision.sift``.

``gaussian_blur`` convolved every row and then every column of a padded
plane, one ``np.convolve`` call each; ``detect`` tested each DoG level's
extrema against eight ``np.roll``-ed copies and built a
:class:`Keypoint` per extremum; ``describe`` accumulated histograms with
``np.add.at``; ``match`` ran the ratio test in a loop over keypoints.
The bodies are kept as they were, with the settings every shipping run
used, as :class:`OracleSift`'s defaults.  ``test_sift_oracle.py`` holds
the array program to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.config import FINITE, real_number
from repro.errors import ConfigurationError
from repro.vision.imageops import gradient_magnitude_orientation

_DESCRIPTOR_CELLS = 4
_DESCRIPTOR_BINS = 8
_WINDOW_RADIUS = 8


@lru_cache(maxsize=32)
def gaussian_kernel_1d(sigma: float, radius: int) -> np.ndarray:
    """Normalised 1-D Gaussian kernel."""
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs ** 2) / (2.0 * sigma ** 2))
    return kernel / kernel.sum()


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a 2-D plane, in numpy alone.

    The kernel is truncated at ``round(3 * sigma)`` samples (at least one)
    and the plane is mirrored about its edge samples, which are not
    repeated (``np.pad``'s ``"reflect"``: ``c b | a b c``), before each
    pass.
    """
    plane = np.asarray(image, dtype=np.float64)
    if plane.ndim != 2:
        raise ConfigurationError("gaussian_blur expects a 2-D plane")
    if real_number(sigma, "sigma", **FINITE) <= 0:
        return plane.copy()
    radius = max(int(round(3.0 * sigma)), 1)
    kernel = gaussian_kernel_1d(float(sigma), radius)
    padded = np.pad(plane, ((0, 0), (radius, radius)), mode="reflect")
    blurred = np.apply_along_axis(
        lambda row: np.convolve(row, kernel, mode="valid"), 1, padded)
    padded = np.pad(blurred, ((radius, radius), (0, 0)), mode="reflect")
    return np.apply_along_axis(
        lambda col: np.convolve(col, kernel, mode="valid"), 0, padded)


@dataclass(frozen=True)
class Keypoint:
    row: int
    col: int
    response: float
    scale: int


@dataclass
class FrameFeatures:
    keypoints: List[Keypoint]
    descriptors: np.ndarray

    @property
    def num_keypoints(self) -> int:
        return len(self.keypoints)


class OracleSift:
    """Feature extraction, matching and the change score, per keypoint."""

    def __init__(self) -> None:
        self.num_scales = 4
        self.base_sigma = 1.2
        self.contrast_threshold = 4.0
        self.max_keypoints = 200
        self.ratio_threshold = 0.8
        self._previous_features: Optional[FrameFeatures] = None

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
        ys, xs = np.mgrid[-radius:radius, -radius:radius]
        weight = np.exp(-(ys ** 2 + xs ** 2) / (2.0 * (0.5 * window) ** 2))
        weighted = patch_magnitude * weight[None, :, :]
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
        norms = np.linalg.norm(descriptors, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        descriptors = np.clip(descriptors / norms, 0, 0.2)
        norms = np.linalg.norm(descriptors, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        return descriptors / norms

    def extract(self, plane: np.ndarray) -> FrameFeatures:
        keypoints = self.detect(plane)
        descriptors = self.describe(plane, keypoints)
        return FrameFeatures(keypoints=keypoints, descriptors=descriptors)

    def match(self, first: FrameFeatures, second: FrameFeatures
              ) -> List[Tuple[int, int, float]]:
        """``(index_in_first, index_in_second, distance)`` of each match."""
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

    def reset(self) -> None:
        self._previous_features = None

    def score_next(self, current: np.ndarray) -> float:
        features = self.extract(np.asarray(current, dtype=np.float64))
        previous = self._previous_features
        self._previous_features = features
        if previous is None:
            return float("inf")
        return 1.0 - self.match_fraction(previous, features)
