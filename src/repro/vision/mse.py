"""Mean-squared-error change detector (baseline).

The simplest decode-based filter evaluated in the paper: decode every frame,
compute the pixel-wise mean squared difference against the previous frame,
and forward the frame to the NN when the difference exceeds a threshold.
MSE is cheap but purely global, so it is good at catching small objects
(whose few changed pixels still shift the global mean) yet blind to *which*
part of the scene changed and easily disturbed by illumination drift — the
behaviour the paper observes in Figure 3.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .imageops import mean_squared_error
from .similarity import ChangeDetector


class MseChangeDetector(ChangeDetector):
    """Frame-difference detector using pixel-wise mean squared error at full
    resolution."""

    name = "mse"

    def __init__(self) -> None:
        self._previous: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._previous = None

    def score_next(self, current: np.ndarray) -> float:
        plane = np.asarray(current, dtype=np.float64)
        previous = self._previous
        self._previous = plane
        if previous is None:
            return float("inf")
        return mean_squared_error(previous, plane)
