"""Unit tests of the sequential drift detectors (pure, no rendering)."""

import math

import pytest

from repro.adapt import (DriftSignal, PageHinkleyDetector,
                         WindowedZScoreDetector)
from repro.errors import ServiceError


class TestWindowedZScore:
    def test_steady_baseline_never_fires(self):
        detector = WindowedZScoreDetector("novelty", threshold=4.0,
                                          min_std=1e-3)
        samples = [0.010, 0.011, 0.009, 0.010, 0.012, 0.010, 0.011]
        assert all(detector.observe(value) is None for value in samples)

    def test_step_change_fires_with_magnitude(self):
        detector = WindowedZScoreDetector("novelty", threshold=4.0,
                                          min_samples=4, min_std=1e-3)
        for value in (0.010, 0.011, 0.009, 0.010):
            assert detector.observe(value) is None
        signal = detector.observe(0.500)
        assert signal is not None
        assert signal.statistic == "novelty"
        assert signal.kind == "zscore"
        assert signal.magnitude > 4.0
        assert signal.value == 0.500

    def test_firing_samples_not_absorbed_into_baseline(self):
        # A sustained shift keeps firing until the controller resets the
        # detector — the baseline keeps describing the pre-drift regime.
        detector = WindowedZScoreDetector("novelty", threshold=4.0,
                                          min_samples=4, min_std=1e-3)
        for value in (0.010, 0.011, 0.009, 0.010):
            detector.observe(value)
        assert detector.observe(0.500) is not None
        assert detector.observe(0.500) is not None
        assert detector.observe(0.500) is not None

    def test_reset_requires_fresh_baseline(self):
        detector = WindowedZScoreDetector("novelty", threshold=4.0,
                                          min_samples=4, min_std=1e-3)
        for value in (0.010, 0.011, 0.009, 0.010):
            detector.observe(value)
        assert detector.observe(0.500) is not None
        detector.reset()
        # Below min_samples again: the same outlier cannot fire.
        assert detector.observe(0.500) is None

    def test_min_samples_gate(self):
        detector = WindowedZScoreDetector("novelty", threshold=1.0,
                                          min_samples=4, min_std=1e-3)
        assert detector.observe(0.0) is None
        assert detector.observe(0.0) is None
        assert detector.observe(0.0) is None
        # Only 3 baseline samples: still gated despite the huge jump.
        assert detector.observe(100.0) is None

    def test_nan_samples_are_skipped(self):
        detector = WindowedZScoreDetector("brightness", threshold=4.0,
                                          min_samples=4)
        for value in (100.0, 101.0, 99.0, 100.0):
            detector.observe(value)
        assert detector.observe(float("nan")) is None
        assert detector.observe(10.0) is not None

    def test_min_std_floor_bounds_noise_z(self):
        # A bit-identical baseline would give std 0 and infinite z; the
        # floor keeps tiny jitter from counting as drift.
        detector = WindowedZScoreDetector("novelty", threshold=4.0,
                                          min_samples=4, min_std=0.1)
        for _ in range(5):
            detector.observe(0.5)
        assert detector.observe(0.6) is None  # z = 0.1/0.1 = 1 < 4

    def test_validation(self):
        with pytest.raises(ServiceError):
            WindowedZScoreDetector("x", threshold=0.0)
        with pytest.raises(ServiceError):
            WindowedZScoreDetector("x", window=1)
        with pytest.raises(ServiceError):
            WindowedZScoreDetector("x", min_samples=1)
        with pytest.raises(ServiceError):
            WindowedZScoreDetector("x", min_std=0.0)

    @pytest.mark.parametrize("knobs", [
        {"threshold": math.nan}, {"threshold": math.inf},
        {"min_std": math.nan}, {"window": 12.5}, {"min_samples": 3.5},
        {"min_samples": math.nan}, {"window": 4, "min_samples": 5},
    ])
    def test_nan_fractions_and_unreachable_minimums_are_refused(self, knobs):
        with pytest.raises(ServiceError):
            WindowedZScoreDetector("x", **knobs)


class TestPageHinkley:
    def test_steady_signal_never_fires(self):
        detector = PageHinkleyDetector("brightness", delta=1.0,
                                       threshold=20.0)
        for value in [100.0, 100.5, 99.5, 100.2, 99.8] * 10:
            assert detector.observe(value) is None

    def test_slow_downward_ramp_accumulates_and_fires(self):
        # Each step is within noise; the cumulative deviation is not —
        # exactly the day->night dimming a windowed z-score absorbs.
        detector = PageHinkleyDetector("brightness", delta=0.5,
                                       threshold=20.0)
        fired_at = None
        for step in range(60):
            signal = detector.observe(120.0 - 1.5 * step)
            if signal is not None:
                fired_at = step
                break
        assert fired_at is not None
        assert signal.kind == "page-hinkley"
        assert signal.magnitude > 20.0

    def test_two_sided_upward_ramp_fires_too(self):
        detector = PageHinkleyDetector("brightness", delta=0.5,
                                       threshold=20.0)
        assert any(detector.observe(60.0 + 1.5 * step) is not None
                   for step in range(60))

    def test_min_samples_gate(self):
        detector = PageHinkleyDetector("brightness", delta=0.0,
                                       threshold=0.5, min_samples=5)
        assert detector.observe(0.0) is None
        # Count 2 < 5: gated even though the sums already exceed.
        assert detector.observe(100.0) is None

    def test_reset_clears_accumulation(self):
        detector = PageHinkleyDetector("brightness", delta=0.5,
                                       threshold=20.0)
        for step in range(40):
            detector.observe(120.0 - 1.5 * step)
        detector.reset()
        for value in [60.0, 60.5, 59.5, 60.0]:
            assert detector.observe(value) is None

    def test_nan_samples_are_skipped(self):
        detector = PageHinkleyDetector("brightness", delta=0.5,
                                       threshold=20.0, min_samples=2)
        assert detector.observe(float("nan")) is None
        assert detector._count == 0

    def test_validation(self):
        with pytest.raises(ServiceError):
            PageHinkleyDetector("x", delta=-0.1)
        with pytest.raises(ServiceError):
            PageHinkleyDetector("x", threshold=0.0)
        with pytest.raises(ServiceError):
            PageHinkleyDetector("x", min_samples=1)

    @pytest.mark.parametrize("knobs", [
        {"delta": math.nan}, {"threshold": math.nan},
        {"threshold": math.inf}, {"min_samples": 2.5},
    ])
    def test_nan_and_fractions_are_refused(self, knobs):
        with pytest.raises(ServiceError):
            PageHinkleyDetector("x", **knobs)


class TestDriftSignal:
    def test_describe_is_deterministic_and_compact(self):
        signal = DriftSignal(statistic="brightness", kind="page-hinkley",
                             magnitude=36.73191, value=63.2)
        assert signal.describe() == "brightness:page-hinkley=36.732"
