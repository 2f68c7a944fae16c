"""Lightweight drift detectors over scalar scene statistics.

Two classic sequential change detectors, both deterministic pure
functions of the observed sample sequence (no randomness — the seeding
contract of the adaptive path lives entirely in the *workload*: scenario
scripts, fault plans and soak schedules all derive from
:func:`repro.rng.make_rng`):

* :class:`WindowedZScoreDetector` — keeps a bounded window of baseline
  samples and flags a sample whose z-score against that baseline exceeds
  a threshold.  Catches step changes and fast ramps (scene-cut storms,
  novelty spikes).
* :class:`PageHinkleyDetector` — the Page–Hinkley cumulative-sum test on
  the deviation from the running mean, two-sided.  Catches slow drifts
  a windowed z-score would absorb into its baseline (gradual day→night
  dimming).

Both report a :class:`DriftSignal` carrying a deterministic, printable
magnitude so trigger strings in retune histories diff byte-identically
across reruns.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from ..config import NON_NEGATIVE, POSITIVE, real_number, whole_number
from ..errors import ServiceError


@dataclass(frozen=True)
class DriftSignal:
    """One detector firing.

    Attributes:
        statistic: Name of the monitored statistic (``novelty``, ...).
        kind: Detector kind (``zscore`` or ``page-hinkley``).
        magnitude: Detector-specific drift magnitude (z value or PH sum).
        value: The sample that fired.
    """

    statistic: str
    kind: str
    magnitude: float
    value: float

    def describe(self) -> str:
        """Deterministic short form used in trigger strings."""
        return f"{self.statistic}:{self.kind}={self.magnitude:.3f}"


class WindowedZScoreDetector:
    """Flag samples far from a bounded window of baseline samples.

    The baseline window holds the most recent ``window`` *accepted*
    samples; each new sample is scored against the window **before**
    being absorbed into it, so a sustained shift keeps firing until the
    detector is reset (which the controller does after a retune — the new
    regime becomes the new baseline).

    Args:
        statistic: Name reported in :class:`DriftSignal`.
        threshold: z-score above which the detector fires.
        window: Baseline window length.
        min_samples: Samples required in the baseline before the detector
            may fire (a two-sample "baseline" fires on noise).
        min_std: Floor on the baseline standard deviation, so a
            near-constant baseline does not turn measurement noise into
            unbounded z-scores.
    """

    kind = "zscore"

    def __init__(self, statistic: str, threshold: float = 4.0,
                 window: int = 12, min_samples: int = 4,
                 min_std: float = 1e-3) -> None:
        # `z > nan` would never fire.
        self.threshold = float(real_number(
            threshold, "z-score threshold", ServiceError, **POSITIVE))
        self.min_std = float(real_number(min_std, "min_std", ServiceError,
                                         **POSITIVE))
        self.statistic = statistic
        self.window = whole_number(window, "z-score window", ServiceError,
                                   2)
        # The baseline never holds more than ``window`` samples, so a larger
        # ``min_samples`` would never let the detector fire.
        self.min_samples = whole_number(min_samples, "z-score min_samples",
                                        ServiceError, least=2,
                                        most=self.window)
        self._baseline: Deque[float] = deque(maxlen=self.window)

    def observe(self, value: float) -> Optional[DriftSignal]:
        """Score ``value`` against the baseline, then absorb it."""
        if value != value:  # nan: statistic unavailable for this chunk
            return None
        signal = None
        if len(self._baseline) >= self.min_samples:
            count = len(self._baseline)
            mean = sum(self._baseline) / count
            variance = sum((sample - mean) ** 2
                           for sample in self._baseline) / count
            std = max(math.sqrt(variance), self.min_std)
            z = abs(value - mean) / std
            if z > self.threshold:
                signal = DriftSignal(statistic=self.statistic, kind=self.kind,
                                     magnitude=z, value=value)
        # A firing sample is *not* absorbed: the baseline keeps describing
        # the pre-drift regime, so a genuine shift fires on every chunk
        # until the controller confirms it and resets the detector.
        if signal is None:
            self._baseline.append(value)
        return signal

    def reset(self) -> None:
        """Forget the baseline (called after a confirmed retune)."""
        self._baseline.clear()


class PageHinkleyDetector:
    """Two-sided Page–Hinkley cumulative drift test.

    Tracks the running mean of the samples and accumulates deviations
    beyond a tolerance ``delta`` in both directions; fires when either
    cumulative sum exceeds ``threshold``.  Slow monotonic drifts
    accumulate even when each step is individually within noise.

    Args:
        statistic: Name reported in :class:`DriftSignal`.
        delta: Per-sample deviation tolerance (same units as the samples).
        threshold: Cumulative deviation that constitutes drift.
        min_samples: Samples required before the detector may fire.
    """

    kind = "page-hinkley"

    def __init__(self, statistic: str, delta: float = 0.5,
                 threshold: float = 20.0, min_samples: int = 4) -> None:
        self.delta = float(real_number(delta, "Page-Hinkley delta",
                                       ServiceError, **NON_NEGATIVE))
        self.threshold = float(real_number(
            threshold, "Page-Hinkley threshold", ServiceError, **POSITIVE))
        self.statistic = statistic
        self.min_samples = whole_number(
            min_samples, "Page-Hinkley min_samples", ServiceError, 2)
        self.reset()

    def observe(self, value: float) -> Optional[DriftSignal]:
        """Fold ``value`` into the cumulative sums and test them."""
        if value != value:  # nan: statistic unavailable for this chunk
            return None
        self._count += 1
        self._mean += (value - self._mean) / self._count
        deviation = value - self._mean
        self._sum_up = max(0.0, self._sum_up + deviation - self.delta)
        self._sum_down = max(0.0, self._sum_down - deviation - self.delta)
        if self._count < self.min_samples:
            return None
        magnitude = max(self._sum_up, self._sum_down)
        if magnitude > self.threshold:
            return DriftSignal(statistic=self.statistic, kind=self.kind,
                               magnitude=magnitude, value=value)
        return None

    def reset(self) -> None:
        """Forget all state (called after a confirmed retune)."""
        self._count = 0
        self._mean = 0.0
        self._sum_up = 0.0
        self._sum_down = 0.0
