"""Scene-cut analysis: the heart of the semantic video encoder.

An x264-style encoder decides to emit an I-frame when the current frame is
"hard to predict" from the previous one; the ``--scenecut`` parameter (0-400)
controls how aggressively that decision is made.  SiEVE's contribution is to
*tune* that parameter (together with the GOP size) so the decision fires
exactly when an object enters or leaves the scene.

This module implements the per-frame analysis.  For every frame we run
block-matching motion estimation against the previous frame and compute:

* ``inter_cost``  — total SAD of the best motion-compensated prediction,
* ``intra_cost``  — total SAD of a cheap intra predictor (per-block DC),
* ``novel_block_fraction`` — the fraction of macroblocks that contain
  *new content*: at least :data:`NOVEL_PIXEL_COUNT` pixels whose
  motion-compensated residual exceeds :data:`NOVEL_PIXEL_THRESHOLD` luma
  levels.  Sensor noise never reaches that threshold, so the score is a
  noise-robust measure of how much of the frame could not be explained by
  motion from the previous frame — exactly the situation when a new object
  appears (its pixels did not exist before) or leaves (the background it
  occluded reappears).

The scenecut *decision* maps the 0-400 threshold onto a required
``novel_block_fraction`` via :func:`scenecut_score_threshold`: higher
thresholds demand less novelty, i.e. place I-frames more aggressively —
matching the paper's description ("the higher the scenecut threshold value,
the more sensitive it is to small motion").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..contracts import validate_precision
from ..errors import CodecError
from .blocks import DEFAULT_BLOCK_SIZE, pad_plane, to_blocks
from .motion import MotionSearch, motion_compensate

#: Residual magnitude (luma levels) above which a pixel counts as novel.
#: Sensor noise in the synthetic scenes has a standard deviation of 2-3
#: levels, so 25 is far outside the noise distribution, while objects have
#: luma deltas of 45-95.
NOVEL_PIXEL_THRESHOLD = 25.0

#: Number of novel pixels a macroblock must contain to count as a novel block.
NOVEL_PIXEL_COUNT = 4

#: Maximum scenecut threshold accepted by x264 (and by this reproduction).
MAX_SCENECUT = 400

#: Scale/shape of the threshold-to-score mapping (see
#: :func:`scenecut_score_threshold`).
_SCORE_SCALE = 0.4
_SCORE_GAMMA = 6.0


@dataclass(frozen=True)
class FrameActivity:
    """Motion-analysis statistics of one frame relative to its predecessor.

    Attributes:
        frame_index: Index of the analysed frame.
        inter_cost: Total SAD of the best motion-compensated prediction.
        intra_cost: Total SAD of the per-block DC intra predictor.
        novel_block_fraction: Fraction of macroblocks with new content.
        moving_block_fraction: Fraction of blocks with non-zero motion vectors.
        is_first: Whether this is the first frame of the video (always an
            I-frame, with no predecessor to analyse).
    """

    frame_index: int
    inter_cost: float
    intra_cost: float
    novel_block_fraction: float
    moving_block_fraction: float
    is_first: bool = False

    @property
    def predictability(self) -> float:
        """Inter/intra cost ratio; small values mean cheap P-frames."""
        if self.intra_cost <= 0:
            return 0.0
        return self.inter_cost / self.intra_cost


def scenecut_score_threshold(scenecut: float) -> float:
    """Map an x264-style scenecut threshold (0-400) to a required novelty score.

    The mapping is monotonically decreasing: ``scenecut=0`` effectively
    disables scene-cut I-frames (a score above ``_SCORE_SCALE`` would be
    needed, which only a full scene change produces), while ``scenecut=400``
    accepts any non-zero novelty.  The sixth-power shape gives the wide
    dynamic range the paper's tuning relies on: thresholds of 100-250 map to
    required novel-block fractions of roughly 7 %% down to 0.1 %%, spanning
    close-up vehicles down to distant boats.

    Args:
        scenecut: Threshold in ``[0, 400]``; values outside are clipped.

    Returns:
        The minimum ``novel_block_fraction`` that triggers a scene cut.
    """
    clipped = min(max(float(scenecut), 0.0), float(MAX_SCENECUT))
    if clipped >= MAX_SCENECUT:
        return 0.0
    return _SCORE_SCALE * (1.0 - clipped / MAX_SCENECUT) ** _SCORE_GAMMA


def scenecut_novelty_floor(scenecut: float) -> float:
    """The ``novel_block_fraction`` a frame must *exceed* for a cut to fire.

    This is the one statement of the "cut fired" predicate
    (``novelty > scenecut_novelty_floor(scenecut)``) shared by
    :func:`is_scenecut`, both key-frame placers and the drift statistics:
    ``scenecut <= 0`` disables scene cuts (the floor is ``inf``), and the
    ``1e-12`` guard keeps ``scenecut=400`` from firing on exactly zero
    novelty.  It depends only on the threshold, so a grid search needs it
    once per distinct scenecut value, not once per frame.
    """
    if scenecut <= 0:
        return math.inf
    return max(scenecut_score_threshold(scenecut), 1e-12)


def is_scenecut(activity: FrameActivity, scenecut: float) -> bool:
    """Whether ``activity`` crosses the scene-cut decision for ``scenecut``."""
    if activity.is_first:
        return True
    return activity.novel_block_fraction > scenecut_novelty_floor(scenecut)


class SceneCutAnalyzer:
    """Per-frame motion/novelty analyser.

    The analyser is stateful: feed frames in presentation order with
    :meth:`analyze_next`, or analyse a whole video with
    :meth:`analyze_video`.  The statistics depend only on consecutive frame
    pairs, never on encoder parameters, so one analysis pass can be reused to
    evaluate every (GOP, scenecut) configuration — this is what makes the
    offline tuner of Section IV cheap.

    Args:
        block_size: Macroblock size for motion estimation.
        search_radius: Motion search radius in pixels.
        search_step: Motion search grid step.
        novel_pixel_threshold: Override of :data:`NOVEL_PIXEL_THRESHOLD`.
        novel_pixel_count: Override of :data:`NOVEL_PIXEL_COUNT`.
        precision: Numeric mode of the motion search (``"exact"`` default;
            ``"fast"`` selects the float32 SAD path under the tolerance
            contract).
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE, search_radius: int = 2,
                 search_step: int = 1,
                 novel_pixel_threshold: float = NOVEL_PIXEL_THRESHOLD,
                 novel_pixel_count: int = NOVEL_PIXEL_COUNT,
                 precision: str = "exact") -> None:
        if block_size <= 0:
            raise CodecError("block_size must be positive")
        if novel_pixel_threshold <= 0:
            raise CodecError("novel_pixel_threshold must be positive")
        if novel_pixel_count < 1:
            raise CodecError("novel_pixel_count must be >= 1")
        self.block_size = block_size
        self.search_radius = search_radius
        self.search_step = search_step
        self.novel_pixel_threshold = float(novel_pixel_threshold)
        self.novel_pixel_count = int(novel_pixel_count)
        self.precision = validate_precision(precision)
        self._search = MotionSearch(block_size, search_radius, search_step,
                                    self.precision)
        self._previous: Optional[np.ndarray] = None
        self._frame_index = 0

    def reset(self) -> None:
        """Forget the previous frame and restart frame numbering."""
        self._previous = None
        self._frame_index = 0

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def _intra_cost(self, plane: np.ndarray) -> float:
        """Total SAD of the per-block DC (mean) intra predictor."""
        blocks = to_blocks(pad_plane(plane, self.block_size), self.block_size)
        means = blocks.mean(axis=(2, 3), keepdims=True)
        return float(np.abs(blocks - means).sum())

    def analyze_pair(self, previous: np.ndarray, current: np.ndarray,
                     frame_index: int) -> FrameActivity:
        """Analyse ``current`` against ``previous`` (both luma planes)."""
        previous = np.asarray(previous, dtype=np.float64)
        current = np.asarray(current, dtype=np.float64)
        field = self._search(previous, current)
        prediction = motion_compensate(previous, field, current.shape)
        residual = np.abs(current - prediction)
        residual_blocks = to_blocks(pad_plane(residual, self.block_size),
                                    self.block_size)
        novel_pixels = (residual_blocks > self.novel_pixel_threshold).sum(axis=(2, 3))
        novel_blocks = novel_pixels >= self.novel_pixel_count
        return FrameActivity(
            frame_index=frame_index,
            inter_cost=float(field.block_sad.sum()),
            intra_cost=self._intra_cost(current),
            novel_block_fraction=float(novel_blocks.mean()),
            moving_block_fraction=field.nonzero_vector_fraction,
            is_first=False,
        )

    def analyze_next(self, luma: np.ndarray) -> FrameActivity:
        """Analyse the next frame of a stream (presentation order)."""
        luma = np.asarray(luma, dtype=np.float64)
        index = self._frame_index
        if self._previous is None:
            activity = FrameActivity(frame_index=index, inter_cost=0.0,
                                     intra_cost=self._intra_cost(luma),
                                     novel_block_fraction=1.0,
                                     moving_block_fraction=0.0, is_first=True)
        else:
            activity = self.analyze_pair(self._previous, luma, index)
        self._previous = luma
        self._frame_index += 1
        return activity

    def analyze_video(self, video) -> List[FrameActivity]:
        """Analyse every frame of a :class:`~repro.video.raw_video.VideoSource`."""
        self.reset()
        activities = []
        for frame in video.frames():
            activities.append(self.analyze_next(frame.to_grayscale()))
        return activities


def novelty_series(activities: Sequence[FrameActivity]) -> np.ndarray:
    """Extract the ``novel_block_fraction`` series from an analysis pass."""
    return np.array([a.novel_block_fraction for a in activities], dtype=np.float64)


def summarize_activities(activities: Iterable[FrameActivity]) -> dict:
    """Aggregate statistics of an analysis pass (for logging/tests)."""
    activities = list(activities)
    if not activities:
        return {"num_frames": 0}
    novelty = novelty_series(activities)
    return {
        "num_frames": len(activities),
        "mean_novelty": float(novelty.mean()),
        "max_novelty": float(novelty.max()),
        "frames_with_novelty": int((novelty > 0).sum()),
        "mean_predictability": float(np.mean([a.predictability for a in activities])),
    }
