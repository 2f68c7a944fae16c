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

from typing import Iterable, List, Optional

import numpy as np

from ..errors import ConfigurationError
from .imageops import mean_squared_error
from .similarity import ChangeDetector

#: Upper bound, in pixels, on one batch of consecutive planes scored
#: together (256 KiB of float64: a batch and its squares stay in cache).
_BATCH_ELEMENTS = 1 << 15


def _real_plane(plane) -> np.ndarray:
    """``plane`` as an array if it is a non-empty 2-D plane of real numbers.

    Only the shape and dtype are read.  A colour frame is scored as its
    luma (:func:`~repro.vision.similarity.score_video` converts it); a
    3-D array here would be read as a stack of planes.
    """
    plane = np.asarray(plane)
    if plane.ndim != 2 or plane.size == 0 or plane.dtype.kind not in "biuf":
        raise ConfigurationError(
            f"MSE scores non-empty 2-D planes of real numbers, got shape "
            f"{plane.shape} of {plane.dtype}")
    return plane


class MseChangeDetector(ChangeDetector):
    """Frame-difference detector using pixel-wise mean squared error at full
    resolution.

    :meth:`score_planes` scores a clip in batches of consecutive planes,
    one :func:`~repro.vision.imageops.mean_squared_error` call over two
    stacks per batch.  It keeps no state between clips.
    """

    name = "mse"

    def score_planes(self, planes: Iterable[np.ndarray]) -> List[float]:
        scores: List[float] = []
        stack: Optional[np.ndarray] = None
        filled = 0
        for plane in planes:
            plane = _real_plane(plane)
            if stack is None:
                scores.append(float("inf"))
                stack = np.empty((max(2, _BATCH_ELEMENTS // plane.size),
                                  *plane.shape))
            elif plane.shape != stack.shape[1:]:
                raise ConfigurationError(
                    f"shape mismatch: {stack.shape[1:]} vs {plane.shape}")
            stack[filled] = plane  # converted to float64 here
            filled += 1
            if filled == len(stack):
                scores += mean_squared_error(stack[:-1], stack[1:]).tolist()
                stack[0] = stack[-1]
                filled = 1
        if filled > 1:
            scores += mean_squared_error(stack[:filled - 1],
                                         stack[1:filled]).tolist()
        return scores
