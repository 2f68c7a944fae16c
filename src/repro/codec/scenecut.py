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
from numpy.lib.stride_tricks import sliding_window_view

from ..contracts import validate_precision
from ..errors import CodecError
from .blocks import DEFAULT_BLOCK_SIZE, pad_plane, padded_shape, to_blocks
from .motion import (MotionSearch, integer_block_sums, integer_candidate_sads,
                     integer_sad_dtype, motion_compensate, offset_table)

#: Residual magnitude (luma levels) above which a pixel counts as novel.
#: Sensor noise in the synthetic scenes has a standard deviation of 2-3
#: levels, so 25 is far outside the noise distribution, while objects have
#: luma deltas of 45-95.
NOVEL_PIXEL_THRESHOLD = 25.0

#: Number of novel pixels a macroblock must contain to count as a novel block.
NOVEL_PIXEL_COUNT = 4

#: :data:`NOVEL_PIXEL_THRESHOLD` for integer residuals: ``r`` exceeds the
#: threshold ``t`` iff ``r > floor(t)``.
_NOVEL_LEVEL = math.floor(NOVEL_PIXEL_THRESHOLD)

#: Maximum scenecut threshold accepted by x264 (and by this reproduction).
MAX_SCENECUT = 400

#: Scale/shape of the threshold-to-score mapping (see
#: :func:`scenecut_score_threshold`).
_SCORE_SCALE = 0.4
_SCORE_GAMMA = 6.0

#: Upper bound, in frame pixels, on one batch of the integer analysis pass,
#: and on the search's difference stack (128 k: 22 frames of 102 x 58).
#: Both stacks are two bytes a pixel.  A larger batch costs fewer numpy
#: calls a frame but more memory, which adds to the process's peak RSS: on
#: the ``offline_build`` clips 64 k ran the pass in 0.10 s with a 0.56 MB
#: traced peak, 128 k in 0.09 s with 0.98 MB, 256 k in 0.08 s with 1.8 MB.
_FRAME_BATCH_ELEMENTS = 1 << 17


def _as_plane(luma) -> np.ndarray:
    """A ``uint8`` plane as it is; anything else as float64 (the float path)."""
    luma = np.asarray(luma)
    if luma.dtype == np.uint8:
        return luma
    return np.asarray(luma, dtype=np.float64)


def _require_int(name: str, value, minimum: int) -> int:
    """``value`` as an ``int`` if it is an integer (not a bool) >= ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise CodecError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


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
    """Whole-clip motion/novelty analyser.

    :meth:`analyze_frames` takes a clip's luma planes in presentation order
    and returns one :class:`FrameActivity` per frame; :meth:`analyze_video`
    does the same for a video.  The analyser holds its settings and nothing
    else: every call starts at frame 0.  The statistics depend only on
    consecutive frame pairs, never on encoder parameters, so one analysis
    pass can be reused to evaluate every (GOP, scenecut) configuration —
    this is what makes the offline tuner of Section IV cheap, and it is the
    pass every encode places its frames from.

    Raw ``uint8`` planes (grayscale frames as captured) take the integer
    path: a run of consecutive frames is padded once into an ``int16``
    stack and searched as one batch (:func:`integer_candidate_sads`), and
    the prediction, residual and intra costs are whole-batch integer
    operations.  Every quantity is an integer sum, exact in any order, so
    the activities equal the float64 path's exactly, in either precision.
    Other planes — RGB-derived luma, reconstructions — take the float64
    :class:`MotionSearch` of ``precision`` one frame pair at a time, as do
    blocks larger than 16, whose SADs need more than two bytes.

    Args:
        block_size: Macroblock size for motion estimation.
        search_radius: Motion search radius in pixels.
        precision: Numeric mode of the float motion search (``"exact"``
            default; ``"fast"`` selects the float32 SAD path under the
            tolerance contract).
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE, search_radius: int = 2,
                 precision: str = "exact") -> None:
        self.block_size = _require_int("block_size", block_size, 1)
        self.search_radius = _require_int("search_radius", search_radius, 0)
        self.precision = validate_precision(precision)
        self._search = MotionSearch(self.block_size, self.search_radius,
                                    precision=self.precision)
        self._sad_dtype = integer_sad_dtype(self.block_size)
        self._offset_table = offset_table(self.search_radius, 1)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def analyze_frames(self, planes: Iterable[np.ndarray]) -> List[FrameActivity]:
        """Analyse a clip's luma planes, from frame 0, in presentation order.

        Planes are taken in runs of up to :data:`_FRAME_BATCH_ELEMENTS`
        pixels; the last plane of a run is the reference of the next run's
        first.  Each plane must be an array of its own: a buffer refilled
        in place would be read after the refill.
        """
        activities: List[FrameActivity] = []
        previous: Optional[np.ndarray] = None
        batch: List[np.ndarray] = []
        limit = 0
        for plane in planes:
            batch.append(plane)
            if not limit:
                limit = max(1, _FRAME_BATCH_ELEMENTS // max(np.size(plane), 1))
            if len(batch) == limit:
                activities += self._analyze_run(previous, batch, len(activities))
                previous = batch[-1]
                batch = []
        if batch:
            activities += self._analyze_run(previous, batch, len(activities))
        return activities

    def analyze_video(self, video) -> List[FrameActivity]:
        """Analyse every frame of a :class:`~repro.video.raw_video.VideoSource`.

        Grayscale frames are analysed as their ``uint8`` planes, colour
        frames by their float luma.
        """
        return self.analyze_frames(
            frame.data if frame.data.ndim == 2 else frame.to_grayscale()
            for frame in video.frames())

    def _analyze_run(self, previous: Optional[np.ndarray],
                     planes: Sequence[np.ndarray],
                     first_index: int) -> List[FrameActivity]:
        """Activities of consecutive ``planes``, the first one following
        ``previous`` (``None``: the first frame of the video)."""
        stack = [_as_plane(plane) for plane in
                 (planes if previous is None else [previous, *planes])]
        shape = stack[0].shape
        for plane in stack:
            if plane.ndim != 2 or plane.size == 0:
                raise CodecError(
                    f"expected a non-empty 2-D luma plane, got shape {plane.shape}")
            if plane.shape != shape:
                raise CodecError(
                    f"frame shapes differ within a video: {shape} and {plane.shape}")
        if (self._sad_dtype is not None
                and all(plane.dtype == np.uint8 for plane in stack)):
            return self._analyze_integer(stack, first_index,
                                         previous is not None)
        activities: List[FrameActivity] = []
        reference = None if previous is None else stack[0]
        for plane in stack[len(stack) - len(planes):]:
            index = first_index + len(activities)
            if reference is None:
                activities.append(_first_activity(index, self._intra_cost(plane)))
            else:
                activities.append(self._float_pair(reference, plane, index))
            reference = plane
        return activities

    # ------------------------------------------------------------------ #
    # The float path: one frame pair at a time
    # ------------------------------------------------------------------ #
    def _intra_cost(self, plane: np.ndarray) -> float:
        """Total SAD of the per-block DC (mean) intra predictor."""
        plane = np.asarray(plane, dtype=np.float64)
        blocks = to_blocks(pad_plane(plane, self.block_size), self.block_size)
        means = blocks.mean(axis=(2, 3), keepdims=True)
        return float(np.abs(blocks - means).sum())

    def _float_pair(self, previous: np.ndarray, current: np.ndarray,
                    frame_index: int) -> FrameActivity:
        """Analyse ``current`` against ``previous`` with the float64 search."""
        previous = np.asarray(previous, dtype=np.float64)
        current = np.asarray(current, dtype=np.float64)
        field = self._search(previous, current)
        prediction = motion_compensate(previous, field, current.shape)
        residual = np.abs(current - prediction)
        residual_blocks = to_blocks(pad_plane(residual, self.block_size),
                                    self.block_size)
        novel_pixels = (residual_blocks > NOVEL_PIXEL_THRESHOLD).sum(axis=(2, 3))
        novel_blocks = novel_pixels >= NOVEL_PIXEL_COUNT
        return FrameActivity(
            frame_index=frame_index,
            inter_cost=float(field.block_sad.sum()),
            intra_cost=self._intra_cost(current),
            novel_block_fraction=float(novel_blocks.mean()),
            moving_block_fraction=field.nonzero_vector_fraction,
            is_first=False,
        )

    # ------------------------------------------------------------------ #
    # The integer path: a run of uint8 frames at a time
    # ------------------------------------------------------------------ #
    def _analyze_integer(self, stack: List[np.ndarray], first_index: int,
                         has_previous: bool) -> List[FrameActivity]:
        """Activities of ``stack`` (uint8 planes), all but a given previous."""
        block, radius = self.block_size, self.search_radius
        height, width = stack[0].shape
        padded_h, padded_w = padded_shape(height, width, block)
        # pad_plane to the block grid, then pad_edge by the search radius:
        # both replicate edges, so one replication of the frame's border does.
        padded = np.empty((len(stack), padded_h + 2 * radius,
                           padded_w + 2 * radius), dtype=np.int16)
        padded[:, radius:radius + height, radius:radius + width] = stack
        padded[:, :radius] = padded[:, radius:radius + 1]
        padded[:, radius + height:] = padded[:, radius + height - 1:radius + height]
        padded[:, :, :radius] = padded[:, :, radius:radius + 1]
        padded[:, :, radius + width:] = padded[:, :, radius + width - 1:radius + width]
        pairs = (self._integer_pairs(padded, height, width)
                 if len(stack) > 1 else [])
        # Last, because the intra costs fold the stack in place.
        intra = self._integer_intra_costs(
            padded[int(has_previous):, radius:radius + padded_h,
                   radius:radius + padded_w])
        activities: List[FrameActivity] = []
        if not has_previous:
            activities.append(_first_activity(first_index, intra.pop(0)))
        index = first_index + len(activities)
        activities += [
            FrameActivity(frame_index=index + offset, inter_cost=inter_cost,
                          intra_cost=intra_cost, novel_block_fraction=novel,
                          moving_block_fraction=moving)
            for offset, ((inter_cost, novel, moving), intra_cost)
            in enumerate(zip(pairs, intra))]
        return activities

    def _integer_pairs(self, padded: np.ndarray, height: int,
                       width: int) -> List[tuple]:
        """``(inter_cost, novel_block_fraction, moving_block_fraction)`` of
        frames ``1..m-1`` of a padded ``int16`` stack."""
        block, radius = self.block_size, self.search_radius
        sads = integer_candidate_sads(padded, block, radius,
                                      _FRAME_BATCH_ELEMENTS)
        best = sads.argmin(axis=0)  # first minimum: the origin wins ties
        pairs, blocks_y, blocks_x = best.shape
        inter = sads.min(axis=0).sum(axis=(1, 2), dtype=np.int64)
        del sads  # freed before the prediction's stacks are allocated
        moving = np.count_nonzero(best, axis=(1, 2))
        # The prediction, in block layout: each block fetched from its
        # reference displaced by its vector, in one gather over the batch.
        vectors = self._offset_table[best]
        windows = sliding_window_view(padded[:-1], (block, block), axis=(1, 2))
        rows = (np.arange(blocks_y) * block + radius)[:, None] - vectors[..., 0]
        cols = (np.arange(blocks_x) * block + radius)[None, :] - vectors[..., 1]
        prediction = windows[np.arange(pairs)[:, None, None], rows, cols]
        # The residual is taken on the frame and then block-padded: crop the
        # prediction and replicate its border, as the frame's was.
        bottom = height - (blocks_y - 1) * block
        right = width - (blocks_x - 1) * block
        prediction[:, -1, :, bottom:] = prediction[:, -1, :, bottom - 1:bottom]
        prediction[:, :, -1, :, right:] = prediction[:, :, -1, :, right - 1:right]
        current = (padded[1:, radius:radius + blocks_y * block,
                          radius:radius + blocks_x * block]
                   .reshape(pairs, blocks_y, block, blocks_x, block)
                   .transpose(0, 1, 3, 2, 4))
        residual = np.subtract(current, prediction, out=prediction)
        novel_pixels = (np.abs(residual, out=residual)
                        > _NOVEL_LEVEL).sum(axis=(3, 4))
        novel = np.count_nonzero(novel_pixels >= NOVEL_PIXEL_COUNT, axis=(1, 2))
        count = blocks_y * blocks_x
        return [(float(cost), novel_count / count, moving_count / count)
                for cost, novel_count, moving_count
                in zip(inter.tolist(), novel.tolist(), moving.tolist())]

    def _integer_intra_costs(self, current: np.ndarray) -> List[float]:
        """Intra cost of each block-padded ``int16`` plane of ``current``.

        With ``n = b²`` a power of two, a block mean ``S / n`` and every
        deviation ``v - S / n`` are exact in float64, and so is their sum:
        the float path's cost is exactly ``sum |n·v - S| / n``, which is
        computed here in integers, folding ``current`` in place for the
        block sums.  Other block sizes round ``S / n``, so they keep the
        float body, frame by frame.
        """
        block = self.block_size
        if block & (block - 1):
            return [self._intra_cost(plane) for plane in current]
        frames, padded_h, padded_w = current.shape
        area = block * block
        deviation = np.multiply(
            current.reshape(frames, padded_h // block, block,
                            padded_w // block, block),
            area, dtype=np.int16 if area * 255 < 1 << 15 else np.int32)
        sums = integer_block_sums(current.view(self._sad_dtype), block)
        deviation -= sums[:, :, None, :, None]
        totals = np.abs(deviation, out=deviation).sum(axis=(1, 2, 3, 4),
                                                      dtype=np.int64)
        return [total / area for total in totals.tolist()]


def _first_activity(frame_index: int, intra_cost: float) -> FrameActivity:
    """The activity of a video's first frame: an I-frame, nothing to predict."""
    return FrameActivity(frame_index=frame_index, inter_cost=0.0,
                         intra_cost=intra_cost, novel_block_fraction=1.0,
                         moving_block_fraction=0.0, is_first=True)


def novelty_series(activities: Sequence[FrameActivity]) -> np.ndarray:
    """Extract the ``novel_block_fraction`` series from an analysis pass."""
    return np.array([a.novel_block_fraction for a in activities], dtype=np.float64)
