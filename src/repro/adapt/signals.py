"""Per-chunk scene statistics that feed the drift detectors.

The analysis pass (:class:`~repro.codec.scenecut.SceneCutAnalyzer`) is
already computed once per chunk on the serving path — its
:class:`~repro.codec.scenecut.FrameActivity` records are parameter
independent, which is what makes the offline grid search cheap and is
also what makes *online* drift detection cheap: the controller never
touches pixels, it folds the activities every chunk already carries into
three scalars (mean novelty, scene-cut rate, mean brightness) and feeds
those to the detectors.

:class:`ChunkScene` is the optional payload a caller attaches to a
:class:`~repro.service.session.FrameChunk`.  Chunks without one are
invisible to the adaptive controller, so the default serving path stays
bit-identical to the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Sequence, Tuple

import numpy as np

from ..codec.scenecut import (FrameActivity, novelty_series,
                              scenecut_novelty_floor)
from ..errors import ServiceError

#: Reference scenecut threshold used to turn per-frame novelty into a
#: parameter-independent scene-cut *rate* statistic.  100 is the centre of
#: the paper's grid, so the rate tracks "how often would a mid-grid config
#: cut here" regardless of the parameters currently deployed.
REFERENCE_SCENECUT: float = 100.0


@dataclass(frozen=True)
class SceneStats:
    """Rolling scene statistics of one chunk of footage.

    Attributes:
        num_frames: Frames summarised.
        mean_novelty: Mean ``novel_block_fraction`` over the chunk's
            non-first frames (the synthetic ``1.0`` of an ``is_first``
            frame would poison the mean).
        scenecut_rate: Fraction of non-first frames whose novelty exceeds
            the :data:`REFERENCE_SCENECUT` decision threshold.
        mean_brightness: Mean luma of the chunk's frames, when the caller
            measured it (``nan`` when unavailable — the brightness
            detector skips nan samples).
    """

    num_frames: int
    mean_novelty: float
    scenecut_rate: float
    mean_brightness: float = float("nan")

    def __post_init__(self) -> None:
        if self.num_frames < 1:
            raise ServiceError("SceneStats needs at least one frame")
        if not 0.0 <= self.scenecut_rate <= 1.0:
            raise ServiceError("scenecut_rate must be within [0, 1]")

    @classmethod
    def from_activities(cls, activities: Sequence[FrameActivity],
                        mean_brightness: float = float("nan"),
                        reference_scenecut: float = REFERENCE_SCENECUT
                        ) -> "SceneStats":
        """Fold an analysis pass into the drift statistics.

        ``is_first`` frames are excluded from novelty/scene-cut folding
        (their novelty is a synthetic 1.0); a chunk of only first frames
        degenerates to zero novelty, which is harmless — detectors only
        ever see it once per session.
        """
        if not activities:
            raise ServiceError("SceneStats needs at least one activity")
        threshold = scenecut_novelty_floor(reference_scenecut)
        novelty_sum = 0.0
        cuts = 0
        counted = 0
        for activity in activities:
            if activity.is_first:
                continue
            counted += 1
            novelty_sum += activity.novel_block_fraction
            if activity.novel_block_fraction > threshold:
                cuts += 1
        if counted == 0:
            return cls(num_frames=len(activities), mean_novelty=0.0,
                       scenecut_rate=0.0, mean_brightness=mean_brightness)
        return cls(num_frames=len(activities),
                   mean_novelty=novelty_sum / counted,
                   scenecut_rate=cuts / counted,
                   mean_brightness=mean_brightness)


@dataclass(frozen=True)
class ChunkScene:
    """Optional scene payload riding on a pushed :class:`FrameChunk`.

    Attributes:
        stats: The chunk's drift statistics (what the detectors consume).
        activities: The chunk's analysis pass, in frame order (what a
            triggered re-tune grid-searches over).
        frame_labels: Ground-truth (or detector-predicted) label sets per
            frame, aligned with ``activities`` — the re-tune scores
            candidate placements against the timeline these reconstruct.
        novelty: The ``novel_block_fraction`` column of ``activities``
            (read-only float64).
        firsts: The positions of the ``is_first`` records in
            ``activities``.

    ``novelty`` and ``firsts`` are the two columns key-frame placement
    reads.  They are computed once, when the scene is built, so a re-tune
    joins its window's columns
    (:meth:`~repro.codec.gop.ActivityColumns.concatenate`) instead of
    re-reading every record.
    """

    stats: SceneStats
    activities: Tuple[FrameActivity, ...]
    frame_labels: Tuple[FrozenSet[str], ...]
    novelty: np.ndarray = field(init=False, repr=False, compare=False)
    firsts: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.activities) != len(self.frame_labels):
            raise ServiceError(
                f"chunk scene has {len(self.activities)} activities but "
                f"{len(self.frame_labels)} frame label sets")
        if len(self.activities) != self.stats.num_frames:
            raise ServiceError(
                f"chunk scene stats cover {self.stats.num_frames} frames "
                f"but {len(self.activities)} activities were attached")
        novelty = novelty_series(self.activities)
        novelty.flags.writeable = False
        object.__setattr__(self, "novelty", novelty)
        object.__setattr__(self, "firsts", tuple(
            index for index, activity in enumerate(self.activities)
            if activity.is_first))


def chunk_scene(activities: Sequence[FrameActivity],
                frame_labels: Sequence[Iterable[str]],
                mean_brightness: float = float("nan"),
                reference_scenecut: float = REFERENCE_SCENECUT) -> ChunkScene:
    """Build a :class:`ChunkScene` from one chunk's analysis pass."""
    stats = SceneStats.from_activities(
        activities, mean_brightness=mean_brightness,
        reference_scenecut=reference_scenecut)
    return ChunkScene(stats=stats, activities=tuple(activities),
                      frame_labels=tuple(frozenset(labels)
                                         for labels in frame_labels))

