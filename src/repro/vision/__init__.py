"""Decode-based vision baselines (MSE, SIFT) and shared image operations."""

from .imageops import (gaussian_blur, gradient_magnitude_orientation, gradients,
                       mean_squared_error, normalize_plane, resize_stack,
                       to_grayscale)
from .mse import MseChangeDetector
from .sift import FrameFeatures, Keypoint, SiftChangeDetector, SiftLite
from .similarity import (ChangeDetector, ThresholdSampler, score_video,
                         threshold_for_sampling_fraction)

__all__ = [
    "gaussian_blur", "gradient_magnitude_orientation", "gradients",
    "mean_squared_error", "normalize_plane", "resize_stack",
    "to_grayscale",
    "MseChangeDetector",
    "FrameFeatures", "Keypoint", "SiftChangeDetector", "SiftLite",
    "ChangeDetector", "ThresholdSampler", "score_video",
    "threshold_for_sampling_fraction",
]
