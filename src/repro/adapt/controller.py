"""Online re-tune controller: confirmed drift -> windowed grid search.

The paper's tuner is strictly offline — tune once on labelled footage,
deploy frozen (Section IV).  Production cameras drift, so this module
closes the loop in the serving path:

* :class:`DriftMonitor` is the pure, clock-free per-session core: it
  folds each chunk's :class:`~repro.adapt.signals.ChunkScene` into the
  detectors, applies hysteresis (:data:`CONFIRM_CHUNKS` consecutive
  drifting chunks) and cooldown, and on confirmed drift re-runs the cheap
  ``tune_from_columns`` grid search over a sliding window of recent
  chunks.  Being pure makes it directly testable without a service.
* :class:`AdaptiveTuningController` binds monitors to a live
  :class:`~repro.service.service.StreamingService`: it observes accepted
  pushes, applies winning parameters through the existing
  ``retune_session`` path (no stream is dropped), versions every retune
  in a :class:`~repro.core.tuner.ParameterLookupTable` and mirrors it
  into the fault driver's recovery trace when one is installed.

Determinism: every decision is a pure function of the pushed chunk
sequence and the push instants, and the controller's effects (table
versions, trace records, counters, ``retune_session``) happen in the
order the pushes fire — inside the push events on the event loop, or at
a batch drain's commit in the same order — so same-seed runs produce
byte-identical retune histories under the virtual and the real-time
clock alike.  No chunk's cost reads a session's parameters, so the
controller never changes a run's timelines.  Tie-break contract: a grid
winner whose F1 does not *strictly* beat the incumbent's on the same
window is a no-op (see :class:`~repro.core.tuner.TuningResult`), so exact
ties never churn sessions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Union

from ..codec.gop import (DEFAULT_PARAMETERS, ActivityColumns,
                         EncoderParameters)
from ..core.metrics import evaluate_sampling
from ..core.tuner import (ParameterLookupTable, SemanticEncoderTuner,
                          TuningGrid)
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


#: The (GOP, scenecut) grid a triggered re-tune explores.
RETUNE_GRID = TuningGrid()
#: Sliding window of recent chunks a re-tune grid-searches over.
WINDOW_CHUNKS = 8
#: Chunks required in the window before a re-tune may run (a one-chunk
#: "window" overfits).
MIN_WINDOW_CHUNKS = 3
#: Hysteresis: consecutive drifting chunks required to confirm a drift.
CONFIRM_CHUNKS = 2
#: Virtual seconds after a confirmed drift during which new confirmations
#: are suppressed.
COOLDOWN_SECONDS = 10.0
#: Baseline window of the z-score detectors, and the baseline samples
#: every detector needs before it may fire.
DETECTOR_WINDOW = 12
DETECTOR_MIN_SAMPLES = 4


@dataclass(frozen=True)
class AdaptiveConfig:
    """The online adaptive tuning loop's starting point.

    The loop's tuning (window, hysteresis, cooldown, detector thresholds,
    grid) is this module's constants.

    Attributes:
        initial_parameters: Parameters deployed before the first retune
            (typically the offline tune of the training split); also the
            template for non-tuned fields (quality, block size).
    """

    initial_parameters: EncoderParameters = DEFAULT_PARAMETERS

    def __post_init__(self) -> None:
        # Anything else would fail at the first confirmed drift, inside a
        # push event or a batch drain's commit.
        if not isinstance(self.initial_parameters, EncoderParameters):
            raise ServiceError(
                f"initial_parameters must be EncoderParameters, "
                f"got {self.initial_parameters!r}")


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
        self._window: Deque[ChunkScene] = deque(maxlen=WINDOW_CHUNKS)
        self._detectors = _drift_detectors()
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
        if self._consecutive < CONFIRM_CHUNKS:
            return None
        if now < self._cooldown_until:
            return None
        if len(self._window) < MIN_WINDOW_CHUNKS:
            return None
        # Confirmed drift: arm the cooldown, reset hysteresis and give the
        # detectors a fresh baseline (the post-drift regime).
        self._cooldown_until = now + COOLDOWN_SECONDS
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
        window = self._window
        # The chunks carry their placement columns: joining them is the
        # window's analysis pass.
        columns = ActivityColumns.concatenate(
            [scene.novelty for scene in window],
            [scene.firsts for scene in window])
        frame_labels: List[frozenset] = []
        for scene in window:
            frame_labels.extend(scene.frame_labels)
        timeline = EventTimeline.from_frame_labels(frame_labels)
        # A tuner is cheap to build: every tuner of the same grid and base
        # shares the grid's configurations.
        result = SemanticEncoderTuner(
            grid=RETUNE_GRID, base_parameters=self.current
        ).tune_from_columns(columns, timeline)
        incumbent = result.score_of(self.current)
        if incumbent is not None:
            old_f1 = incumbent.score.f1
        else:
            # The incumbent is off-grid (custom offline tune): replay its
            # placement on the same window so the comparison is apples to
            # apples.
            keyframes = columns.keyframe_indices(self.current)
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


def _drift_detectors(
        ) -> List[Union[WindowedZScoreDetector, PageHinkleyDetector]]:
    """The three detectors of one session, in the order ``_fold`` feeds
    them: z-scores of the mean novelty and of the scene-cut rate, and a
    Page–Hinkley test on the mean luma."""
    return [
        WindowedZScoreDetector(
            "novelty", threshold=4.0, window=DETECTOR_WINDOW,
            min_samples=DETECTOR_MIN_SAMPLES, min_std=1e-3),
        WindowedZScoreDetector(
            "scenecut-rate", threshold=4.0, window=DETECTOR_WINDOW,
            min_samples=DETECTOR_MIN_SAMPLES, min_std=5e-3),
        PageHinkleyDetector(
            "brightness", delta=1.0, threshold=25.0,
            min_samples=DETECTOR_MIN_SAMPLES),
    ]


class AdaptiveTuningController:
    """Service-bound driver of the online adaptive tuning loop.

    Installed by :class:`~repro.service.service.StreamingService` when an
    :class:`AdaptiveConfig` is passed (and never otherwise — the default
    serving path stays bit-identical to the seed).  Every accepted push
    reaches :meth:`observe_push` with its instant: the event loop calls it
    inside the push event, and a batch drain
    (:class:`~repro.service.batch.FeederBatch`) calls it at commit, push
    by push in the order the loop would have fired them.  Chunks without
    a :class:`ChunkScene` payload are ignored.
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

    def observe_push(self, session: "StreamSession", chunk: "FrameChunk",
                     now: float) -> None:
        """Fold one accepted push, made at virtual instant ``now``, into
        the session's drift monitor."""
        scene = chunk.scene
        if scene is None:
            return
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

