"""DriftMonitor: hysteresis, cooldown, determinism, tie no-ops."""

import dataclasses
import math

import pytest

from repro.adapt import AdaptiveConfig, ChunkScene, DriftMonitor, SceneStats
from repro.codec.gop import EncoderParameters
from repro.codec.scenecut import FrameActivity
from repro.core.tuner import TuningGrid
from repro.errors import ServiceError, TuningError
from repro.perf import get_recorder

#: Matches the conftest chunking: one chunk per 2 virtual seconds.
CHUNK_SECONDS = 2.0


def flat_scene(novelty: float, brightness: float = 100.0,
               frames: int = 4) -> ChunkScene:
    """A hand-built chunk whose every frame carries ``novelty``."""
    activities = tuple(
        FrameActivity(frame_index=index, inter_cost=10.0, intra_cost=100.0,
                      novel_block_fraction=novelty,
                      moving_block_fraction=0.0)
        for index in range(frames))
    return ChunkScene(
        stats=SceneStats.from_activities(activities,
                                         mean_brightness=brightness),
        activities=activities,
        frame_labels=(frozenset(),) * frames)


class TestAdaptiveConfig:
    def test_validation(self):
        with pytest.raises(ServiceError):
            AdaptiveConfig(window_chunks=0)
        with pytest.raises(ServiceError):
            AdaptiveConfig(window_chunks=4, min_window_chunks=5)
        with pytest.raises(ServiceError):
            AdaptiveConfig(confirm_chunks=0)
        with pytest.raises(ServiceError):
            AdaptiveConfig(cooldown_seconds=-1.0)

    @pytest.mark.parametrize("field, value", [
        # nan passes `< 0` / `<= 0` checks and then disables what it bounds:
        # `now < nan` never holds, `z > nan` never fires.
        ("cooldown_seconds", math.nan),
        ("cooldown_seconds", math.inf),
        ("novelty_threshold", math.nan),
        ("scenecut_rate_threshold", math.nan),
        ("brightness_threshold", math.nan),
        ("brightness_delta", math.nan),
        ("novelty_threshold", math.inf),
        # Fractional counts used to act as the next whole number.
        ("confirm_chunks", 1.5),
        ("window_chunks", 8.5),
        ("min_window_chunks", 2.5),
        ("detector_window", 12.5),
        # These used to raise a bare ValueError, or only once a session's
        # monitor was built.
        ("detector_min_samples", math.nan),
        ("detector_min_samples", "4"),
        ("brightness_threshold", -1.0),
        ("detector_window", 0),
        # A z-score baseline never holds more than `detector_window`
        # samples, so this detector could never fire.
        ("detector_min_samples", 13),
        ("grid", ((100,), (40.0,))),
    ])
    def test_bad_knobs_fail_at_construction(self, field, value):
        with pytest.raises(ServiceError):
            AdaptiveConfig(**{field: value})

    def test_whole_valued_counts_become_ints(self):
        config = AdaptiveConfig(window_chunks=8.0, confirm_chunks=2.0,
                                detector_window=12.0)
        assert config.window_chunks == 8 and type(config.window_chunks) is int
        assert type(config.confirm_chunks) is int
        assert DriftMonitor(config)._detectors[0].window == 12

    def test_grid_points_no_encoder_takes_fail_before_the_first_push(self):
        with pytest.raises(TuningError):
            AdaptiveConfig(grid=TuningGrid(gop_sizes=(0,)))


class TestHysteresisAndCooldown:
    CONFIG = AdaptiveConfig(confirm_chunks=2, min_window_chunks=3,
                            cooldown_seconds=10.0, detector_min_samples=4,
                            novelty_threshold=4.0)

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
        config = dataclasses.replace(self.CONFIG, cooldown_seconds=4.0)
        monitor = DriftMonitor(config)
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
        config = dataclasses.replace(self.CONFIG,
                                     initial_parameters=initial)
        monitor = DriftMonitor(config)
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
