"""Online re-tune controller: confirmed drift -> windowed grid search.

The paper's tuner is strictly offline — tune once on labelled footage,
deploy frozen (Section IV).  Production cameras drift, so this module
closes the loop in the serving path:

* :class:`DriftMonitor` is the pure, clock-free per-session core: it
  folds each chunk's :class:`~repro.adapt.signals.ChunkScene` into the
  detectors, applies hysteresis (``confirm_chunks`` consecutive drifting
  chunks) and cooldown, and on confirmed drift re-runs the cheap
  ``tune_from_activities`` grid search over a sliding window of recent
  activities.  Being pure makes it directly testable — the differential
  exact-vs-fast contract drives it without a service.
* :class:`AdaptiveTuningController` binds monitors to a live
  :class:`~repro.service.service.StreamingService`: it observes accepted
  pushes, applies winning parameters through the existing
  ``retune_session`` path (no stream is dropped), versions every retune
  in a :class:`~repro.core.tuner.ParameterLookupTable` and mirrors it
  into the fault driver's recovery trace when one is installed.

Determinism: every decision is a pure function of the pushed chunk
sequence and the virtual clock, and all controller work happens inside
push events on the shared event heap — so same-seed runs produce
byte-identical retune histories under the virtual and the real-time
clock alike.  Tie-break contract: a grid winner whose F1 does not
*strictly* beat the incumbent's on the same window is a no-op (see
:class:`~repro.core.tuner.TuningResult`), so exact ties never churn
sessions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from ..codec.gop import (DEFAULT_PARAMETERS, EncoderParameters,
                         KeyframePlacer)
from ..codec.scenecut import FrameActivity
from ..core.metrics import evaluate_sampling
from ..core.tuner import (ParameterLookupTable, RetuneRecord,
                          SemanticEncoderTuner, TuningGrid)
from ..errors import ServiceError
from ..faults.stats import RecoveryTrace
from ..logging_utils import get_logger
from ..perf import section as perf_section
from ..video.events import EventTimeline
from .detectors import (DriftSignal, PageHinkleyDetector,
                        WindowedZScoreDetector)
from .signals import ChunkScene

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service.service import StreamingService
    from ..service.session import FrameChunk, StreamSession

_LOGGER = get_logger(__name__)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the online adaptive tuning loop.

    Attributes:
        grid: The (GOP, scenecut) grid a triggered re-tune explores.
        initial_parameters: Parameters deployed before the first retune
            (typically the offline tune of the training split); also the
            template for non-tuned fields (quality, block size).
        window_chunks: Sliding window of recent chunks a re-tune
            grid-searches over.
        min_window_chunks: Chunks required in the window before a
            re-tune may run (a one-chunk "window" overfits).
        confirm_chunks: Hysteresis — consecutive drifting chunks required
            before a drift is confirmed.
        cooldown_seconds: Virtual seconds after a confirmed drift during
            which new confirmations are suppressed.
        novelty_threshold: z-score threshold on mean novelty.
        scenecut_rate_threshold: z-score threshold on the scene-cut rate.
        brightness_delta: Page–Hinkley per-sample tolerance on mean luma.
        brightness_threshold: Page–Hinkley cumulative threshold on luma.
        detector_window: Baseline window of the z-score detectors.
        detector_min_samples: Baseline samples required before any
            detector may fire.
        precision: Numeric mode of the re-tune grid search (``"exact"``
            default; ``"fast"`` rides the float32 motion-search path and
            is covered by the differential contract tests).
    """

    grid: TuningGrid = field(default_factory=TuningGrid)
    initial_parameters: EncoderParameters = DEFAULT_PARAMETERS
    window_chunks: int = 8
    min_window_chunks: int = 3
    confirm_chunks: int = 2
    cooldown_seconds: float = 10.0
    novelty_threshold: float = 4.0
    scenecut_rate_threshold: float = 4.0
    brightness_delta: float = 1.0
    brightness_threshold: float = 25.0
    detector_window: int = 12
    detector_min_samples: int = 4
    precision: str = "exact"

    def __post_init__(self) -> None:
        if self.window_chunks < 1:
            raise ServiceError("window_chunks must be >= 1")
        if not 1 <= self.min_window_chunks <= self.window_chunks:
            raise ServiceError(
                "min_window_chunks must be within [1, window_chunks]")
        if self.confirm_chunks < 1:
            raise ServiceError("confirm_chunks must be >= 1")
        if self.cooldown_seconds < 0:
            raise ServiceError("cooldown_seconds must be >= 0")


@dataclass(frozen=True)
class RetuneDecision:
    """Outcome of one confirmed drift evaluation.

    Attributes:
        time: Virtual time of the evaluation.
        trigger: Deterministic description of the confirming signals.
        old: Parameters in force before the evaluation.
        new: The window grid-search winner.
        old_f1: The incumbent's F1 on the evaluation window.
        new_f1: The winner's F1 on the evaluation window.
        applied: ``False`` when the winner is the incumbent or tie-equal
            to it (no-op by the tie-break contract).
    """

    time: float
    trigger: str
    old: EncoderParameters
    new: EncoderParameters
    old_f1: float
    new_f1: float
    applied: bool


class DriftMonitor:
    """Pure per-session drift detection + re-tune decision core.

    Feed it one :class:`ChunkScene` per accepted chunk via
    :meth:`observe`; it returns a :class:`RetuneDecision` whenever a
    confirmed drift triggered a window grid search (applied or not), and
    ``None`` otherwise.  It never touches a clock or a service — time
    arrives as an argument — so the same chunk sequence always yields
    the same decisions.
    """

    def __init__(self, config: AdaptiveConfig) -> None:
        self.config = config
        self.current = config.initial_parameters
        self._window: Deque[ChunkScene] = deque(maxlen=config.window_chunks)
        self._detectors = [
            WindowedZScoreDetector(
                "novelty", threshold=config.novelty_threshold,
                window=config.detector_window,
                min_samples=config.detector_min_samples,
                min_std=1e-3),
            WindowedZScoreDetector(
                "scenecut-rate", threshold=config.scenecut_rate_threshold,
                window=config.detector_window,
                min_samples=config.detector_min_samples,
                min_std=5e-3),
            PageHinkleyDetector(
                "brightness", delta=config.brightness_delta,
                threshold=config.brightness_threshold,
                min_samples=config.detector_min_samples),
        ]
        self._consecutive = 0
        self._cooldown_until = float("-inf")

    def observe(self, scene: ChunkScene,
                now: float) -> Optional[RetuneDecision]:
        """Fold one chunk's scene payload; maybe decide a re-tune."""
        self._window.append(scene)
        signals = self._fold(scene)
        if signals:
            self._consecutive += 1
        else:
            self._consecutive = 0
        if self._consecutive < self.config.confirm_chunks:
            return None
        if now < self._cooldown_until:
            return None
        if len(self._window) < self.config.min_window_chunks:
            return None
        # Confirmed drift: arm the cooldown, reset hysteresis and give the
        # detectors a fresh baseline (the post-drift regime).
        self._cooldown_until = now + self.config.cooldown_seconds
        self._consecutive = 0
        trigger = ",".join(signal.describe() for signal in signals)
        with perf_section("adapt.retune"):
            decision = self._evaluate(trigger, now)
        for detector in self._detectors:
            detector.reset()
        if decision.applied:
            self.current = decision.new
        return decision

    def _fold(self, scene: ChunkScene) -> List[DriftSignal]:
        """Feed the chunk statistics to every detector, in fixed order."""
        stats = scene.stats
        values = (stats.mean_novelty, stats.scenecut_rate,
                  stats.mean_brightness)
        signals = []
        for detector, value in zip(self._detectors, values):
            signal = detector.observe(value)
            if signal is not None:
                signals.append(signal)
        return signals

    def _evaluate(self, trigger: str, now: float) -> RetuneDecision:
        """Grid-search the window and compare the winner to the incumbent."""
        activities: List[FrameActivity] = []
        frame_labels: List[frozenset] = []
        for scene in self._window:
            activities.extend(scene.activities)
            frame_labels.extend(scene.frame_labels)
        timeline = EventTimeline.from_frame_labels(frame_labels)
        tuner = SemanticEncoderTuner(grid=self.config.grid,
                                     base_parameters=self.current,
                                     precision=self.config.precision)
        result = tuner.tune_from_activities(activities, timeline)
        incumbent = result.score_of(self.current)
        if incumbent is not None:
            old_f1 = incumbent.score.f1
        else:
            # The incumbent is off-grid (custom offline tune): replay its
            # placement on the same window so the comparison is apples to
            # apples.
            keyframes = KeyframePlacer(self.current).keyframe_indices(
                activities)
            old_f1 = evaluate_sampling(timeline, keyframes).f1
        winner = result.best
        # Tie-break contract: only a *strictly* better F1 with genuinely
        # different parameters is worth a retune; tie-equal winners are
        # no-ops so exact ties never churn sessions.
        applied = (winner.parameters != self.current
                   and winner.score.f1 > old_f1)
        return RetuneDecision(
            time=now, trigger=trigger, old=self.current,
            new=winner.parameters, old_f1=old_f1,
            new_f1=winner.score.f1, applied=applied)


class AdaptiveTuningController:
    """Service-bound driver of the online adaptive tuning loop.

    Installed by :class:`~repro.service.service.StreamingService` when an
    :class:`AdaptiveConfig` is passed (and never otherwise — the default
    serving path stays bit-identical to the seed).  The service calls
    :meth:`observe_push` from inside every accepted push event; chunks
    without a :class:`ChunkScene` payload are ignored.
    """

    def __init__(self, service: "StreamingService",
                 config: AdaptiveConfig) -> None:
        self.service = service
        self.config = config
        #: Versioned per-camera parameter table (the audit log).
        self.table = ParameterLookupTable()
        #: The controller's own trace of drift/retune events.
        self.trace = RecoveryTrace()
        self._monitors: Dict[str, DriftMonitor] = {}
        #: Retunes actually applied through ``retune_session``.
        self.retunes_applied = 0
        #: Confirmed drifts whose winner was tie-equal (no-ops).
        self.retunes_suppressed = 0

    def monitor(self, session_id: str) -> Optional[DriftMonitor]:
        """The monitor of one session (``None`` before its first scene)."""
        return self._monitors.get(session_id)

    def observe_push(self, session: "StreamSession",
                     chunk: "FrameChunk") -> None:
        """Fold one accepted push into the session's drift monitor."""
        scene = chunk.scene
        if scene is None:
            return
        now = self.service.scheduler.now
        monitor = self._monitors.get(session.session_id)
        if monitor is None:
            monitor = DriftMonitor(self.config)
            self._monitors[session.session_id] = monitor
            self.table.store(session.camera, monitor.current, time=now,
                             trigger="initial")
        decision = monitor.observe(scene, now)
        if decision is None:
            return
        if not decision.applied:
            self.retunes_suppressed += 1
            self._record(now, "retune-noop",
                         f"camera={session.camera} trigger={decision.trigger} "
                         f"kept=[{decision.old.describe()}] "
                         f"f1={decision.old_f1:.6f}")
            return
        self.service.ingest.retune_session(session.session_id,
                                           parameters=decision.new)
        record = self.table.store(session.camera, decision.new, time=now,
                                  trigger=decision.trigger,
                                  score=decision.new_f1)
        self.retunes_applied += 1
        self._record(now, "session-retuned",
                     f"camera={session.camera} v{record.version} "
                     f"trigger={decision.trigger} "
                     f"old=[{decision.old.describe()}] "
                     f"new=[{decision.new.describe()}] "
                     f"f1={decision.old_f1:.6f}->{decision.new_f1:.6f}")
        _LOGGER.debug("retuned %s: %s -> %s (window F1 %.3f -> %.3f)",
                      session.camera, decision.old.describe(),
                      decision.new.describe(), decision.old_f1,
                      decision.new_f1)

    def history_lines(self) -> List[str]:
        """The versioned retune history (see ``history_lines`` on the table)."""
        return self.table.history_lines()

    def counters(self) -> Dict[str, int]:
        """Flat retune counters (empty while nothing happened)."""
        counters: Dict[str, int] = {}
        if self.retunes_applied:
            counters["retunes_applied"] = self.retunes_applied
        if self.retunes_suppressed:
            counters["retunes_suppressed"] = self.retunes_suppressed
        return counters

    def _record(self, time: float, kind: str, detail: str) -> None:
        """Record into the controller trace and the fault driver's, if any."""
        self.trace.record(time, kind, detail)
        driver = self.service._fault_driver
        if driver is not None:
            driver.trace.record(time, kind, detail)


def retune_history(monitor_decisions: Tuple[RetuneDecision, ...]
                   ) -> List[RetuneRecord]:
    """Render standalone monitor decisions as versioned records (tests)."""
    records: List[RetuneRecord] = []
    version = 0
    for decision in monitor_decisions:
        if not decision.applied:
            continue
        version += 1
        records.append(RetuneRecord(
            version=version, time=decision.time, trigger=decision.trigger,
            old=decision.old, new=decision.new, score=decision.new_f1))
    return records
