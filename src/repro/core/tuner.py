"""Offline tuning of the semantic video encoder (Section IV, Figure 2).

The tuner reproduces the three-step offline procedure of the paper:

1. re-encode historical, labelled footage of a camera under every
   configuration of a ``k x l`` grid of (GOP size, scenecut threshold)
   values;
2. score every configuration by the event-detection accuracy ``acc_i`` and
   the filtering rate ``fr_i`` of its I-frame placement, combined into the
   F1 score ``2*acc*fr/(acc+fr)``;
3. keep the configuration with the highest F1 score; it is stored in a
   lookup table and used to encode the camera's live feed from then on.

Re-encoding the footage k*l times is unnecessary with this codec: I-frame
placement is a pure function of the parameter pair and the per-frame
scene-cut analysis, which is parameter independent.  The tuner therefore
runs the analysis pass once and replays the placement for every
configuration, which is what makes the grid search cheap — and the replay
is an array program: the analysis columns are extracted once per search,
the positions where the scene cut fires once per distinct scenecut value
(``l`` times, not ``k*l``), and I-frames then follow in closed form
(:meth:`repro.codec.gop.ActivityColumns.keyframe_indices`).  Many grid
points place the same I-frames — a GOP cap longer than the footage never
binds, and thresholds that cut the same frames are one — so each distinct
placement is placed once
(:meth:`repro.codec.gop.ActivityColumns.distinct_placements`), and the
distinct placements are scored against the timeline in one call
(:func:`repro.core.metrics.evaluate_sample_sets`).  The grid's ``k*l``
configurations are built once per (grid, base parameters) and shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..codec.encoder import VideoEncoder
from ..codec.gop import DEFAULT_PARAMETERS, ActivityColumns, EncoderParameters
from ..codec.scenecut import FrameActivity
from ..config import validate_precision
from ..errors import ConfigurationError, TuningError
from ..logging_utils import get_logger
from ..video.events import EventTimeline
from ..video.raw_video import VideoSource
from .metrics import DetectionScore, evaluate_sample_sets

_LOGGER = get_logger(__name__)

#: The grid explored by the paper: k = 5 GOP sizes and l = 5 scenecut values.
DEFAULT_GOP_GRID: Tuple[int, ...] = (100, 250, 500, 1000, 5000)
DEFAULT_SCENECUT_GRID: Tuple[float, ...] = (20.0, 40.0, 100.0, 200.0, 250.0)


@dataclass(frozen=True)
class TuningGrid:
    """The configuration grid explored by the offline tuner.

    Attributes:
        gop_sizes: Candidate GOP sizes (the paper's ``k`` values).
        scenecut_thresholds: Candidate scenecut thresholds (``l`` values).
    """

    gop_sizes: Tuple[int, ...] = DEFAULT_GOP_GRID
    scenecut_thresholds: Tuple[float, ...] = DEFAULT_SCENECUT_GRID

    def __post_init__(self) -> None:
        # Every point must be one the encoder takes, so a bad grid fails
        # here rather than at the first retune that walks it.  Sequences
        # become tuples, which keeps the grid hashable.
        try:
            gop_sizes = tuple(EncoderParameters(gop_size=gop).gop_size
                              for gop in self.gop_sizes)
            scenecuts = tuple(self.scenecut_thresholds)
            for scenecut in scenecuts:
                EncoderParameters(scenecut_threshold=scenecut)
        except (ConfigurationError, TypeError) as exc:
            raise TuningError(f"invalid tuning grid point: {exc}") from None
        if not gop_sizes or not scenecuts:
            raise TuningError("the tuning grid must not be empty")
        object.__setattr__(self, "gop_sizes", gop_sizes)
        object.__setattr__(self, "scenecut_thresholds", scenecuts)

    @property
    def num_configurations(self) -> int:
        """Total number of configurations (k * l)."""
        return len(self.gop_sizes) * len(self.scenecut_thresholds)

    def configurations(self, base: Optional[EncoderParameters] = None
                       ) -> Tuple[EncoderParameters, ...]:
        """Every (GOP, scenecut) configuration of the grid, in grid order.

        A pure function of two frozen values, so it is built once per
        (grid, base) and the same tuple is returned to every caller.

        Raises:
            TuningError: If ``base`` is not :class:`EncoderParameters`.
        """
        if base is None:
            base = DEFAULT_PARAMETERS
        elif not isinstance(base, EncoderParameters):
            raise TuningError(
                f"base parameters must be EncoderParameters, got {base!r}")
        # Equal grids may spell a threshold differently (40, 40.0, -0.0),
        # and a configuration prints its threshold as the grid spelled it,
        # so the spelling is part of the key.
        return _grid_configurations(
            self, base, tuple(map(repr, self.scenecut_thresholds)))


@lru_cache(maxsize=128)
def _grid_configurations(grid: TuningGrid, base: EncoderParameters,
                         spelling: Tuple[str, ...]
                         ) -> Tuple[EncoderParameters, ...]:
    """:meth:`TuningGrid.configurations`, memoized."""
    return tuple(base.with_(gop_size=gop, scenecut_threshold=scenecut)
                 for gop in grid.gop_sizes
                 for scenecut in grid.scenecut_thresholds)


@dataclass(frozen=True)
class ConfigurationResult:
    """Score of one configuration of the grid.

    Attributes:
        parameters: The evaluated encoder configuration.
        score: Its event-detection score on the tuning footage.
        keyframe_indices: The I-frame placement it produced.
    """

    parameters: EncoderParameters
    score: DetectionScore
    keyframe_indices: Tuple[int, ...] = field(default=(), repr=False)


@dataclass
class TuningResult:
    """Outcome of a full grid search.

    Tie-break contract: configurations with exactly equal F1 scores rank
    in **grid order** — the order :meth:`TuningGrid.configurations`
    yields them (GOP-major, scenecut-minor).  ``best`` is the *first*
    configuration in grid order among the F1 maxima (``max`` keeps the
    first maximum) and :meth:`leaderboard` preserves grid order within
    every tied group (``sorted`` is stable).  This is deliberate and
    pinned by tests: a deterministic tie-break is what lets the online
    retune controller recognise a tie-equal "winner" and skip the retune
    instead of churning sessions.

    Attributes:
        best: The configuration with the highest F1 score (first in grid
            order on ties).
        results: Every configuration's result, in grid order.
        camera_name: Name of the tuned camera/dataset.
    """

    best: ConfigurationResult
    results: List[ConfigurationResult]
    camera_name: str = ""

    @property
    def best_parameters(self) -> EncoderParameters:
        """The tuned encoder parameters."""
        return self.best.parameters

    def leaderboard(self, top: int = 5) -> List[ConfigurationResult]:
        """The ``top`` configurations by descending F1 score.

        Ties keep grid order (stable sort) — see the class docstring.
        """
        ranked = sorted(self.results, key=lambda result: result.score.f1, reverse=True)
        return ranked[:top]

    def score_of(self, parameters: EncoderParameters
                 ) -> Optional[ConfigurationResult]:
        """The result of one grid configuration (``None`` if not in it)."""
        for result in self.results:
            if result.parameters == parameters:
                return result
        return None

    def as_table(self) -> List[Dict[str, float]]:
        """Tabular view of the grid (used by the tuning example)."""
        return [{
            "gop_size": result.parameters.gop_size,
            "scenecut": result.parameters.scenecut_threshold,
            "accuracy": result.score.accuracy,
            "sampling_fraction": result.score.sampling_fraction,
            "f1": result.score.f1,
        } for result in self.results]


class SemanticEncoderTuner:
    """Grid-search tuner for the semantic video encoder.

    The grid's configurations are built once per (grid, base parameters)
    by :meth:`TuningGrid.configurations`, not once per tuner: every tuner
    of the same grid and base shares one tuple, so after the first such
    tuner another validates no parameters (the online controller builds
    one per drift evaluation).

    Args:
        grid: The (GOP, scenecut) grid to explore.
        base_parameters: Template providing the non-tuned parameters
            (quality, block size, motion-search radius).
        precision: Checked by :func:`~repro.config.validate_precision` and
            otherwise ignored: the codec has one numeric mode.  The
            benchmark still passes it; ROADMAP item 18 removes it.

    Raises:
        TuningError: If ``grid`` is not a :class:`TuningGrid` or
            ``base_parameters`` not :class:`EncoderParameters`.
    """

    def __init__(self, grid: Optional[TuningGrid] = None,
                 base_parameters: Optional[EncoderParameters] = None,
                 precision: str = "exact") -> None:
        validate_precision(precision)
        if grid is None:
            grid = TuningGrid()
        elif not isinstance(grid, TuningGrid):
            raise TuningError(f"grid must be a TuningGrid, got {grid!r}")
        self.grid = grid
        self._configurations = grid.configurations(base_parameters)
        self.base_parameters = (DEFAULT_PARAMETERS if base_parameters is None
                                else base_parameters)

    # ------------------------------------------------------------------ #
    # Grid search
    # ------------------------------------------------------------------ #
    def analyze(self, video: VideoSource) -> List[FrameActivity]:
        """Run the parameter-independent analysis pass over the footage."""
        return VideoEncoder(self.base_parameters).analyze(video)

    def tune_from_activities(self, activities: Sequence[FrameActivity],
                             timeline: EventTimeline,
                             camera_name: str = "") -> TuningResult:
        """Grid-search using a precomputed analysis pass.

        Args:
            activities: Per-frame analysis of the tuning footage.
            timeline: Ground-truth event timeline of the same footage.
            camera_name: Name recorded in the result.

        Returns:
            The :class:`TuningResult`.

        Raises:
            TuningError: If the analysis pass and timeline disagree in length.
        """
        return self.tune_from_columns(ActivityColumns(activities), timeline,
                                      camera_name)

    def tune_from_columns(self, columns: ActivityColumns,
                          timeline: EventTimeline,
                          camera_name: str = "") -> TuningResult:
        """:meth:`tune_from_activities` on an analysis pass's columns.

        Each distinct I-frame placement of the grid is placed and scored
        once (:meth:`ActivityColumns.distinct_placements`); every grid
        point then takes its placement's score, so the results, and the
        tie-break, are those of placing and scoring all ``k*l`` points.
        """
        if columns.num_frames != timeline.num_frames:
            raise TuningError(
                f"analysis pass covers {columns.num_frames} frames but the "
                f"timeline has {timeline.num_frames}")
        placements, slots = columns.distinct_placements(self._configurations)
        scores = evaluate_sample_sets(timeline, placements)
        results = [ConfigurationResult(parameters, scores[slot],
                                       placements[slot])
                   for parameters, slot in zip(self._configurations, slots)]
        # `max` keeps the first maximum, so F1 ties resolve to the first
        # configuration in grid order — the documented tie-break contract
        # (see TuningResult).
        best = max(results, key=attrgetter("score.f1"))
        _LOGGER.debug("tuned %s: best %s (F1=%.3f, acc=%.3f, SS=%.4f)",
                      camera_name or "camera", best.parameters.describe(),
                      best.score.f1, best.score.accuracy,
                      best.score.sampling_fraction)
        return TuningResult(best=best, results=results, camera_name=camera_name)

    def tune(self, video: VideoSource, timeline: Optional[EventTimeline] = None,
             camera_name: str = "") -> TuningResult:
        """Analyse the footage and grid-search the best configuration.

        Args:
            video: Labelled tuning footage.
            timeline: Ground truth; defaults to the video's own ``timeline``.
            camera_name: Name recorded in the result (defaults to the video
                name).

        Returns:
            The :class:`TuningResult`.
        """
        timeline = timeline if timeline is not None else getattr(video, "timeline", None)
        if timeline is None:
            raise TuningError("tuning requires a ground-truth event timeline")
        activities = self.analyze(video)
        return self.tune_from_activities(activities, timeline,
                                         camera_name or video.metadata.name)


@dataclass(frozen=True)
class RetuneRecord:
    """One auditable version of a camera's tuned parameters.

    Every :meth:`ParameterLookupTable.store` appends one of these, so the
    table is not just "current parameters per camera" but the full
    re-tune history the online controller, ``ServiceStatus`` and the
    recovery traces surface.

    Attributes:
        version: 1-based version number within the camera's history.
        time: Virtual time of the store (``0.0`` for offline tunes).
        trigger: Why the parameters changed (``"store"`` for a plain
            offline store; the controller uses its drift trigger string).
        old: Parameters replaced (``None`` for the first version).
        new: Parameters now in force.
        score: F1 score the new parameters achieved on the tuning window
            (``nan`` when not scored).
    """

    version: int
    time: float
    trigger: str
    old: Optional[EncoderParameters]
    new: EncoderParameters
    score: float = float("nan")

    def line(self) -> str:
        """Deterministic one-line rendering (diffable across reruns)."""
        old = self.old.describe() if self.old is not None else "none"
        score = "nan" if self.score != self.score else f"{self.score:.6f}"
        return (f"t={self.time:.6f} v{self.version} trigger={self.trigger} "
                f"old=[{old}] new=[{self.new.describe()}] f1={score}")


class ParameterLookupTable:
    """The per-camera lookup table of tuned parameters (Section IV).

    The operator tunes each camera offline and stores the winning parameters
    here; the online path reads them back when configuring the camera.

    The table is *versioned*: every store appends a :class:`RetuneRecord`
    ``(time, trigger, old, new, score)`` to the camera's history, so an
    online re-tune is auditable after the fact (:meth:`history`,
    :meth:`history_lines`).  Plain offline usage is unchanged — the extra
    metadata defaults keep old call sites valid.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, EncoderParameters] = {}
        self._history: Dict[str, List[RetuneRecord]] = {}

    def store(self, camera_name: str, parameters: EncoderParameters, *,
              time: float = 0.0, trigger: str = "store",
              score: float = float("nan")) -> RetuneRecord:
        """Record the tuned parameters of a camera (appends a version)."""
        records = self._history.setdefault(camera_name, [])
        record = RetuneRecord(
            version=len(records) + 1, time=float(time), trigger=str(trigger),
            old=self._entries.get(camera_name), new=parameters, score=score)
        records.append(record)
        self._entries[camera_name] = parameters
        return record

    def lookup(self, camera_name: str) -> EncoderParameters:
        """Fetch the tuned parameters of a camera."""
        try:
            return self._entries[camera_name]
        except KeyError as exc:
            raise TuningError(f"no tuned parameters stored for {camera_name!r}") from exc

    def history(self, camera_name: str) -> Tuple[RetuneRecord, ...]:
        """The camera's full version history (empty if never stored)."""
        return tuple(self._history.get(camera_name, ()))

    def history_lines(self) -> List[str]:
        """All cameras' histories as deterministic one-line records.

        Cameras sort lexicographically; records stay in version order.
        The chaos/drift soaks diff this output verbatim across reruns.
        """
        return [f"camera={name} {record.line()}"
                for name in sorted(self._history)
                for record in self._history[name]]

    def __contains__(self, camera_name: str) -> bool:
        return camera_name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def as_dict(self) -> Dict[str, EncoderParameters]:
        """A copy of the underlying mapping."""
        return dict(self._entries)
