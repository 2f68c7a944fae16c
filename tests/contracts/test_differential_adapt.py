"""Differential coverage of the online-adaptation path: exact vs fast.

The drift detectors and the re-tune controller consume the analysis pass,
so the fast kernels get the same treatment as the offline pipeline: the
per-chunk scene statistics must agree within the detection budget, and
the *decisions* — where the monitor retunes, and to what — must either
coincide or disagree only on near-tie windows where the F1 gain was
within the tie budget anyway.
"""

import numpy as np
import pytest

from repro.adapt import AdaptiveConfig, DriftMonitor, chunk_scene
from repro.codec.scenecut import SceneCutAnalyzer
from repro.contracts import FAST_CONTRACT
from repro.contracts.contract import agreement_fraction
from repro.core.tuner import SemanticEncoderTuner
from repro.video import make_scenario
from repro.video.events import EventTimeline
from repro.video.synthetic import SyntheticScene

CHUNK_SECONDS = 2.0

#: An applied retune whose window F1 gain is below this is a near-tie:
#: the other precision is allowed to miss (or differently resolve) it.
NEAR_TIE_F1_BUDGET = 0.02


@pytest.fixture(scope="module")
def drifting_frames():
    """Render the drifting day->night clip once; both precisions share it."""
    profile = make_scenario("drifting", duration_seconds=54.0,
                            render_scale=0.12, seed=11)
    scene = SyntheticScene(profile)
    frames = [scene.frame_array(index) for index in range(profile.num_frames)]
    return {
        "frames": frames,
        "labels": scene.script.frame_labels(),
        "lumas": [float(np.asarray(frame, dtype=np.float64).mean())
                  for frame in frames],
        "fps": profile.fps,
    }


def adapt_pipeline(clip, precision):
    """Analyse -> chunk -> warm-up tune -> drift-monitor, one precision."""
    activities = SceneCutAnalyzer(precision=precision).analyze_frames(
        clip["frames"])
    per_chunk = int(round(CHUNK_SECONDS * clip["fps"]))
    scenes = []
    for index in range(len(activities) // per_chunk):
        lo, hi = index * per_chunk, (index + 1) * per_chunk
        scenes.append(chunk_scene(
            activities[lo:hi], clip["labels"][lo:hi],
            mean_brightness=float(np.mean(clip["lumas"][lo:hi]))))
    warm = max(len(scenes) // 4, 3)
    warm_activities = [activity for scene in scenes[:warm]
                       for activity in scene.activities]
    warm_labels = [frame for scene in scenes[:warm]
                   for frame in scene.frame_labels]
    frozen = SemanticEncoderTuner(precision=precision).tune_from_activities(
        warm_activities,
        EventTimeline.from_frame_labels(warm_labels)).best_parameters
    monitor = DriftMonitor(AdaptiveConfig(initial_parameters=frozen,
                                          precision=precision))
    decisions = []
    for index, scene in enumerate(scenes):
        decision = monitor.observe(scene, now=index * CHUNK_SECONDS)
        if decision is not None:
            decisions.append(decision)
    return {"scenes": scenes, "frozen": frozen, "decisions": decisions}


@pytest.fixture(scope="module")
def exact_run(drifting_frames):
    return adapt_pipeline(drifting_frames, "exact")


@pytest.fixture(scope="module")
def fast_run(drifting_frames):
    return adapt_pipeline(drifting_frames, "fast")


class TestSceneStatsAgreement:
    def test_brightness_is_precision_independent(self, exact_run, fast_run):
        # The mean luma never touches the fast kernels: bit-equal, not close.
        assert ([scene.stats.mean_brightness
                 for scene in exact_run["scenes"]]
                == [scene.stats.mean_brightness
                    for scene in fast_run["scenes"]])

    def test_novelty_within_detection_budget(self, exact_run, fast_run):
        exact = np.array([scene.stats.mean_novelty
                          for scene in exact_run["scenes"]])
        fast = np.array([scene.stats.mean_novelty
                         for scene in fast_run["scenes"]])
        assert np.max(np.abs(fast - exact)) <= 0.02

    def test_scenecut_rate_agreement(self, exact_run, fast_run):
        exact = [scene.stats.scenecut_rate for scene in exact_run["scenes"]]
        fast = [scene.stats.scenecut_rate for scene in fast_run["scenes"]]
        assert agreement_fraction(
            [rate > 0.0 for rate in exact],
            [rate > 0.0 for rate in fast]) >= (
            FAST_CONTRACT.detections.min_agreement)


class TestRetuneDecisionAgreement:
    def test_exact_path_applies_a_retune(self, exact_run):
        # Guard against the suite passing vacuously on an empty history.
        assert any(decision.applied for decision in exact_run["decisions"])

    def test_warmup_tunes_agree_or_near_tie(self, exact_run, fast_run):
        if exact_run["frozen"] == fast_run["frozen"]:
            return
        # Different warm-up winners are only tolerable when the fast
        # winner was a near-tie on the exact grid.
        warm_scenes = exact_run["scenes"][:max(
            len(exact_run["scenes"]) // 4, 3)]
        activities = [activity for scene in warm_scenes
                      for activity in scene.activities]
        labels = [frame for scene in warm_scenes
                  for frame in scene.frame_labels]
        result = SemanticEncoderTuner().tune_from_activities(
            activities, EventTimeline.from_frame_labels(labels))
        fast_cell = result.score_of(fast_run["frozen"])
        assert fast_cell is not None
        assert (result.best.score.f1 - fast_cell.score.f1
                <= NEAR_TIE_F1_BUDGET)

    def test_retune_points_agree_or_near_tie(self, exact_run, fast_run):
        exact_applied = {decision.time: decision
                         for decision in exact_run["decisions"]
                         if decision.applied}
        fast_applied = {decision.time: decision
                        for decision in fast_run["decisions"]
                        if decision.applied}
        # A retune only one precision applied must have been a near-tie:
        # its window F1 gain sat within the tie budget.
        for time in set(exact_applied) ^ set(fast_applied):
            decision = exact_applied.get(time) or fast_applied[time]
            assert (decision.new_f1 - decision.old_f1
                    <= NEAR_TIE_F1_BUDGET), (
                f"precision-dependent retune at t={time} was not a "
                f"near-tie: {decision.old_f1:.4f} -> {decision.new_f1:.4f}")
        # Retunes both applied must agree on the winner, or disagree only
        # between winners whose window scores were within the budget.
        for time in set(exact_applied) & set(fast_applied):
            exact_decision = exact_applied[time]
            fast_decision = fast_applied[time]
            assert (exact_decision.new == fast_decision.new
                    or abs(exact_decision.new_f1 - fast_decision.new_f1)
                    <= NEAR_TIE_F1_BUDGET)

    def test_suppressed_noops_agree_on_timing(self, exact_run, fast_run):
        # The no-op (tie-equal) confirmations are part of the decision
        # stream too; their timing comes from the detectors, which must
        # agree here because the statistics agreed above.
        exact_times = [decision.time for decision in exact_run["decisions"]]
        fast_times = [decision.time for decision in fast_run["decisions"]]
        assert agreement_fraction(
            [time in fast_times for time in exact_times],
            [True] * len(exact_times)) >= (
            FAST_CONTRACT.detections.min_agreement)
