"""AdaptiveConfig and the retune constants; DriftMonitor: detectors,
hysteresis, cooldown, determinism, tie no-ops."""

import dataclasses
import math

import pytest

from repro.adapt import AdaptiveConfig, ChunkScene, DriftMonitor, SceneStats
from repro.adapt.controller import (CONFIRM_CHUNKS, COOLDOWN_SECONDS,
                                    DETECTOR_MIN_SAMPLES, DETECTOR_WINDOW,
                                    MIN_WINDOW_CHUNKS, RETUNE_GRID,
                                    WINDOW_CHUNKS)
from repro.codec.gop import DEFAULT_PARAMETERS, EncoderParameters
from repro.codec.scenecut import FrameActivity
from repro.core.tuner import TuningGrid
from repro.errors import ServiceError
from repro.perf import get_recorder

#: Matches the conftest chunking: one chunk per 2 virtual seconds.
CHUNK_SECONDS = 2.0


def flat_scene(novelty: float, brightness: float = 100.0,
               frames: int = 4) -> ChunkScene:
    """A hand-built chunk whose every frame carries ``novelty``."""
    activities = tuple(
        FrameActivity(frame_index=index, novel_block_fraction=novelty)
        for index in range(frames))
    return ChunkScene(
        stats=SceneStats.from_activities(activities,
                                         mean_brightness=brightness),
        activities=activities,
        frame_labels=(frozenset(),) * frames)


class TestAdaptiveConfig:
    """The loop's tuning is the controller's constants; the config holds
    only where a session starts."""

    def test_the_config_is_the_starting_point_alone(self):
        assert [field.name for field in dataclasses.fields(AdaptiveConfig)
                ] == ["initial_parameters"]
        assert AdaptiveConfig().initial_parameters == DEFAULT_PARAMETERS

    @pytest.mark.parametrize("initial", ["x", None, (250, 100)])
    def test_initial_parameters_are_encoder_parameters(self, initial):
        """Regression: ``initial_parameters='x'`` constructed, and the
        first confirmed drift raised a bare AttributeError from the
        tuner inside the push event."""
        with pytest.raises(ServiceError, match="initial_parameters"):
            AdaptiveConfig(initial_parameters=initial)

    @pytest.mark.parametrize("knob", [
        "grid", "window_chunks", "min_window_chunks", "confirm_chunks",
        "cooldown_seconds", "novelty_threshold", "scenecut_rate_threshold",
        "brightness_delta", "brightness_threshold", "detector_window",
        "detector_min_samples"])
    def test_a_removed_knob_is_refused(self, knob):
        with pytest.raises(TypeError, match=knob):
            AdaptiveConfig(**{knob: 1})

    @pytest.mark.parametrize("count", [
        WINDOW_CHUNKS, MIN_WINDOW_CHUNKS, CONFIRM_CHUNKS, DETECTOR_WINDOW,
        DETECTOR_MIN_SAMPLES], ids=[
            "window", "min_window", "confirm", "detector_window",
            "detector_min_samples"])
    def test_counts_are_positive_ints(self, count):
        assert type(count) is int and count >= 1

    def test_a_retune_window_can_fill(self):
        """A minimum above the window's length would never let a re-tune
        run."""
        assert MIN_WINDOW_CHUNKS <= WINDOW_CHUNKS

    def test_every_detector_gets_its_baseline(self):
        """A z-score baseline never holds more than ``DETECTOR_WINDOW``
        samples, so a larger minimum would never let it fire."""
        assert DETECTOR_MIN_SAMPLES <= DETECTOR_WINDOW
        detectors = DriftMonitor(AdaptiveConfig())._detectors
        assert [detector.min_samples for detector in detectors] == [
            DETECTOR_MIN_SAMPLES] * 3
        assert [detector.window for detector in detectors[:2]] == [
            DETECTOR_WINDOW] * 2

    def test_the_cooldown_is_finite_and_positive(self):
        """An infinite cooldown would allow one re-tune per session."""
        assert 0.0 < COOLDOWN_SECONDS < math.inf

    def test_the_retune_grid_is_the_offline_grid(self):
        assert RETUNE_GRID == TuningGrid()


class TestEachDetectorConfirms:
    @pytest.mark.parametrize("statistic, step", [
        ("novelty", {"mean_novelty": 0.5}),
        ("scenecut-rate", {"scenecut_rate": 0.5}),
        ("brightness", {"mean_brightness": 200.0}),
    ])
    def test_a_step_in_its_statistic_alone(self, statistic, step):
        """Each of the three detectors confirms a drift on its own: a
        flat baseline, then a step in one statistic held for the
        confirmation's chunks."""
        def scene(**overrides):
            values = dict(num_frames=4, mean_novelty=0.01,
                          scenecut_rate=0.0, mean_brightness=100.0)
            values.update(overrides)
            activities = tuple(
                FrameActivity(frame_index=index,
                              novel_block_fraction=values["mean_novelty"])
                for index in range(4))
            return ChunkScene(stats=SceneStats(**values),
                              activities=activities,
                              frame_labels=(frozenset(),) * 4)

        monitor = DriftMonitor(AdaptiveConfig())
        scenes = ([scene()] * DETECTOR_MIN_SAMPLES
                  + [scene(**step)] * CONFIRM_CHUNKS)
        decisions = [monitor.observe(chunk, now=index * CHUNK_SECONDS)
                     for index, chunk in enumerate(scenes)]
        assert decisions[:-1] == [None] * (len(scenes) - 1)
        assert decisions[-1] is not None
        assert [signal.split(":")[0]
                for signal in decisions[-1].trigger.split(",")] == [statistic]


class TestHysteresisAndCooldown:
    """Two drifting chunks confirm, a window needs three chunks, every
    detector four baseline samples, and the cooldown is 10 s (5 chunks)."""

    CONFIG = AdaptiveConfig()

    def feed(self, monitor, scenes):
        return [monitor.observe(scene, now=index * CHUNK_SECONDS)
                for index, scene in enumerate(scenes)]

    def test_single_chunk_spike_is_not_confirmed(self):
        monitor = DriftMonitor(self.CONFIG)
        scenes = [flat_scene(0.010), flat_scene(0.011), flat_scene(0.009),
                  flat_scene(0.010), flat_scene(0.500), flat_scene(0.010),
                  flat_scene(0.011)]
        assert all(decision is None for decision in self.feed(monitor, scenes))

    def test_sustained_shift_is_confirmed_once(self):
        monitor = DriftMonitor(self.CONFIG)
        scenes = ([flat_scene(0.010), flat_scene(0.011), flat_scene(0.009),
                   flat_scene(0.010)]
                  + [flat_scene(0.500)] * 4)
        decisions = [d for d in self.feed(monitor, scenes) if d is not None]
        # Confirmed at the second drifting chunk; the cooldown (10 s = 5
        # chunks) swallows the rest of the burst.
        assert len(decisions) == 1
        assert decisions[0].time == 5 * CHUNK_SECONDS
        assert "novelty:zscore" in decisions[0].trigger

    def test_cooldown_expiry_allows_a_second_confirmation(self):
        # After a confirmation the detectors reset, so the sustained
        # 0.500 level becomes the new baseline; a second *shift* past
        # the cooldown confirms again.
        # The second shift confirms at 22 s, after the first confirmation's
        # cooldown ran out.
        assert 5 * CHUNK_SECONDS + COOLDOWN_SECONDS <= 11 * CHUNK_SECONDS
        monitor = DriftMonitor(self.CONFIG)
        scenes = ([flat_scene(0.010)] * 4 + [flat_scene(0.500)] * 6
                  + [flat_scene(2.0)] * 2)
        decisions = [d for d in self.feed(monitor, scenes) if d is not None]
        assert len(decisions) == 2
        assert decisions[0].time == 5 * CHUNK_SECONDS
        assert decisions[1].time == 11 * CHUNK_SECONDS

    def test_tie_equal_winner_is_a_noop(self):
        # Every frame has identical novelty and no labels, so every grid
        # cell ties: the winner must not be applied and the incumbent
        # parameters must survive.
        initial = EncoderParameters(gop_size=250, scenecut_threshold=100)
        monitor = DriftMonitor(AdaptiveConfig(initial_parameters=initial))
        scenes = ([flat_scene(0.010)] * 4 + [flat_scene(0.500)] * 2)
        decisions = [d for d in self.feed(monitor, scenes) if d is not None]
        assert len(decisions) == 1
        assert decisions[0].applied is False
        assert monitor.current == initial


class TestMonitorOnDriftingClip:
    def decisions_of(self, chunks, frozen):
        monitor = DriftMonitor(AdaptiveConfig(initial_parameters=frozen))
        out = []
        for index, chunk in enumerate(chunks):
            decision = monitor.observe(chunk.scene,
                                       now=index * CHUNK_SECONDS)
            if decision is not None:
                out.append(decision)
        return out, monitor

    def test_drift_confirms_and_applies_a_retune(self, drift_chunks,
                                                 frozen_parameters):
        decisions, monitor = self.decisions_of(drift_chunks,
                                               frozen_parameters)
        assert decisions, "the drifting clip confirmed no drift at all"
        applied = [d for d in decisions if d.applied]
        assert applied, "no confirmed drift produced an applied retune"
        # The applied winner strictly beat the incumbent on its window
        # and the monitor now carries it.
        assert applied[-1].new_f1 > applied[-1].old_f1
        assert monitor.current == applied[-1].new
        assert monitor.current != frozen_parameters

    def test_every_evaluation_is_timed_under_adapt_retune(
            self, drift_chunks, frozen_parameters):
        """The recorder attributes retune cost inside the program: one
        ``adapt.retune`` visit per confirmed-drift grid search."""
        sections = get_recorder().sections
        before = sections["adapt.retune"].calls \
            if "adapt.retune" in sections else 0
        decisions, _ = self.decisions_of(drift_chunks, frozen_parameters)
        assert sections["adapt.retune"].calls - before == len(decisions) > 0
        assert sections["adapt.retune"].total_seconds > 0.0

    def test_same_chunks_same_decisions(self, drift_chunks,
                                        frozen_parameters):
        first, _ = self.decisions_of(drift_chunks, frozen_parameters)
        second, _ = self.decisions_of(drift_chunks, frozen_parameters)
        assert first == second  # frozen dataclasses: exact field equality
