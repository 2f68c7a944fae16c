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
    """Per-frame motion/novelty analyser.

    The analyser is stateful: feed frames in presentation order with
    :meth:`analyze_next`, or analyse a whole video with
    :meth:`analyze_video`.  The statistics depend only on consecutive frame
    pairs, never on encoder parameters, so one analysis pass can be reused to
    evaluate every (GOP, scenecut) configuration — this is what makes the
    offline tuner of Section IV cheap.

    Raw ``uint8`` planes (grayscale frames as captured) take the integer
    path: a run of consecutive frames is padded once into an ``int16``
    stack and searched as one batch (:func:`integer_candidate_sads`), and
    the prediction, residual and intra costs are whole-batch integer
    operations.  Every quantity is an integer sum, exact in any order, so
    the activities equal the float64 path's exactly, in either precision.
    Other planes — RGB-derived luma, reconstructions — take the float64
    :class:`MotionSearch` of ``precision`` one frame pair at a time, as do
    blocks larger than 16, whose SADs need more than two bytes.
    :meth:`analyze_pair` and :meth:`analyze_next` are the one-frame form of
    the same pass.

    Args:
        block_size: Macroblock size for motion estimation.
        search_radius: Motion search radius in pixels.
        search_step: Motion search grid step.
        novel_pixel_threshold: Override of :data:`NOVEL_PIXEL_THRESHOLD`.
        novel_pixel_count: Override of :data:`NOVEL_PIXEL_COUNT`.
        precision: Numeric mode of the float motion search (``"exact"``
            default; ``"fast"`` selects the float32 SAD path under the
            tolerance contract).
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE, search_radius: int = 2,
                 search_step: int = 1,
                 novel_pixel_threshold: float = NOVEL_PIXEL_THRESHOLD,
                 novel_pixel_count: int = NOVEL_PIXEL_COUNT,
                 precision: str = "exact") -> None:
        self.block_size = _require_int("block_size", block_size, 1)
        self.search_radius = _require_int("search_radius", search_radius, 0)
        self.search_step = _require_int("search_step", search_step, 1)
        threshold = novel_pixel_threshold
        if (isinstance(threshold, bool)
                or not isinstance(threshold, (int, float, np.integer, np.floating))
                or not 0.0 < threshold < math.inf):
            raise CodecError("novel_pixel_threshold must be positive and finite, "
                             f"got {threshold!r}")
        self.novel_pixel_threshold = threshold = float(threshold)
        self.novel_pixel_count = _require_int("novel_pixel_count",
                                              novel_pixel_count, 1)
        self.precision = validate_precision(precision)
        self._search = MotionSearch(self.block_size, self.search_radius,
                                    self.search_step, self.precision)
        self._sad_dtype = integer_sad_dtype(self.block_size)
        self._offset_table = offset_table(self.search_radius, self.search_step)
        # An integer residual r exceeds the threshold t iff r > floor(t);
        # residuals of uint8 planes never exceed 255.
        self._novel_level = min(math.floor(threshold), 255)
        self._previous: Optional[np.ndarray] = None
        self._frame_index = 0

    def reset(self) -> None:
        """Forget the previous frame and restart frame numbering."""
        self._previous = None
        self._frame_index = 0

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def analyze_pair(self, previous: np.ndarray, current: np.ndarray,
                     frame_index: int) -> FrameActivity:
        """Analyse ``current`` against ``previous`` (both luma planes)."""
        return self._analyze_run(previous, [current], frame_index)[0]

    def analyze_next(self, luma: np.ndarray) -> FrameActivity:
        """Analyse the next frame of a stream (presentation order)."""
        plane = _as_plane(luma)
        if plane.dtype == np.uint8:
            # It becomes the next frame's reference: the caller may refill
            # its buffer before then.
            plane = plane.copy()
        return self.analyze_frames([plane])[0]

    def analyze_frames(self, planes: Iterable[np.ndarray]) -> List[FrameActivity]:
        """Analyse the stream's next frames (presentation order), batched.

        The batched form of :meth:`analyze_next`, with the same activities:
        planes are taken in runs of up to :data:`_FRAME_BATCH_ELEMENTS`
        pixels, and the last one becomes the stream's reference.  Each
        plane must be an array of its own: a buffer refilled in place would
        be read after the refill.
        """
        activities: List[FrameActivity] = []
        batch: List[np.ndarray] = []
        limit = 0
        for plane in planes:
            batch.append(plane)
            if not limit:
                limit = max(1, _FRAME_BATCH_ELEMENTS // max(np.size(plane), 1))
            if len(batch) == limit:
                activities += self._advance(batch)
                batch = []
        if batch:
            activities += self._advance(batch)
        return activities

    def analyze_video(self, video) -> List[FrameActivity]:
        """Analyse every frame of a :class:`~repro.video.raw_video.VideoSource`.

        Grayscale frames are analysed as their ``uint8`` planes, colour
        frames by their float luma.
        """
        self.reset()
        return self.analyze_frames(
            frame.data if frame.data.ndim == 2 else frame.to_grayscale()
            for frame in video.frames())

    def _advance(self, planes: List[np.ndarray]) -> List[FrameActivity]:
        """Analyse the stream's next frames and make the last one the reference."""
        activities = self._analyze_run(self._previous, planes,
                                       self._frame_index)
        self._previous = _as_plane(planes[-1])
        self._frame_index += len(planes)
        return activities

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
        sads = integer_candidate_sads(padded, block, radius, self.search_step,
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
                        > self._novel_level).sum(axis=(3, 4))
        novel = np.count_nonzero(novel_pixels >= self.novel_pixel_count,
                                 axis=(1, 2))
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
