"""Scene-cut analysis: the heart of the semantic video encoder.

An x264-style encoder decides to emit an I-frame when the current frame is
"hard to predict" from the previous one; the ``--scenecut`` parameter (0-400)
controls how aggressively that decision is made.  SiEVE's contribution is to
*tune* that parameter (together with the GOP size) so the decision fires
exactly when an object enters or leaves the scene.

This module implements the per-frame analysis on the 8-bit luma planes an
encoder's lookahead sees.  Every frame is motion-searched against the
previous one, and its ``novel_block_fraction`` is the fraction of
macroblocks that contain *new content*: at least :data:`NOVEL_PIXEL_COUNT`
pixels whose motion-compensated residual exceeds
:data:`NOVEL_PIXEL_THRESHOLD` luma levels.  Sensor noise never reaches that
threshold, so the score is a noise-robust measure of how much of the frame
could not be explained by motion from the previous frame — exactly the
situation when a new object appears (its pixels did not exist before) or
leaves (the background it occluded reappears).

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

from ..config import whole_number
from ..errors import CodecError
from .blocks import DEFAULT_BLOCK_SIZE, padded_shape
from .motion import integer_candidate_sads, offset_table

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

#: Upper bound, in frame pixels, on one batch of the analysis pass,
#: and on the search's difference stack (128 k: 22 frames of 102 x 58).
#: Both stacks are two bytes a pixel.  A larger batch costs fewer numpy
#: calls a frame but more memory, which adds to the process's peak RSS: on
#: the ``offline_build`` clips 64 k ran the pass in 0.10 s with a 0.56 MB
#: traced peak, 128 k in 0.09 s with 0.98 MB, 256 k in 0.08 s with 1.8 MB.
_FRAME_BATCH_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class FrameActivity:
    """The novelty of one frame relative to its predecessor.

    Attributes:
        frame_index: Index of the analysed frame.
        novel_block_fraction: Fraction of macroblocks with new content
            (1.0 for the first frame).
        is_first: Whether this is the first frame of the video (always an
            I-frame, with no predecessor to analyse).
    """

    frame_index: int
    novel_block_fraction: float
    is_first: bool = False


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
    (``novelty > scenecut_novelty_floor(scenecut)``) shared by both
    key-frame placers and the drift statistics:
    ``scenecut <= 0`` disables scene cuts (the floor is ``inf``), and the
    ``1e-12`` guard keeps ``scenecut=400`` from firing on exactly zero
    novelty.  It depends only on the threshold, so a grid search needs it
    once per distinct scenecut value, not once per frame.
    """
    if scenecut <= 0:
        return math.inf
    return max(scenecut_score_threshold(scenecut), 1e-12)


class SceneCutAnalyzer:
    """Whole-clip motion/novelty analyser.

    :meth:`analyze_frames` takes a clip's ``uint8`` luma planes in
    presentation order and returns one :class:`FrameActivity` per frame;
    :meth:`analyze_video` does the same for a video.  The analyser holds its
    settings and nothing else: every call starts at frame 0.  The
    statistics depend only on consecutive frame pairs, never on encoder
    parameters, so one analysis pass can be reused to evaluate every (GOP,
    scenecut) configuration — this is what makes the offline tuner of
    Section IV cheap, and it is the pass every encode places its frames
    from.

    A run of consecutive frames is padded once into an ``int16`` stack and
    searched as one batch (:func:`integer_candidate_sads`); the prediction
    and the residual are whole-batch integer operations, exact in any
    order.

    Args:
        block_size: Macroblock size for motion estimation.
        search_radius: Motion search radius in pixels.
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE,
                 search_radius: int = 2) -> None:
        self.block_size = whole_number(block_size, "block_size", CodecError, 1)
        self.search_radius = whole_number(search_radius, "search_radius",
                                          CodecError, 0)
        self._offset_table = offset_table(self.search_radius, 1)

    def analyze_frames(self, planes: Iterable[np.ndarray]) -> List[FrameActivity]:
        """Analyse a clip's ``uint8`` luma planes, from frame 0, in
        presentation order.

        Planes are taken in runs of up to :data:`_FRAME_BATCH_ELEMENTS`
        pixels; the last plane of a run is the reference of the next run's
        first.  Each plane must be an array of its own: a buffer refilled
        in place would be read after the refill.

        Raises:
            CodecError: If a plane is not a non-empty 2-D ``uint8`` array,
                or the planes differ in shape.
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
        frames on their BT.601 luma, rounded to ``uint8``.
        """
        return self.analyze_frames(
            frame.data if frame.data.ndim == 2
            else np.rint(frame.to_grayscale()).astype(np.uint8)
            for frame in video.frames())

    def _analyze_run(self, previous: Optional[np.ndarray],
                     planes: Sequence[np.ndarray],
                     first_index: int) -> List[FrameActivity]:
        """Activities of consecutive ``planes``, the first one following
        ``previous`` (``None``: the first frame of the video)."""
        stack = [np.asarray(plane) for plane in
                 (planes if previous is None else [previous, *planes])]
        shape = stack[0].shape
        for plane in stack:
            if plane.ndim != 2 or plane.size == 0:
                raise CodecError(
                    f"expected a non-empty 2-D luma plane, got shape {plane.shape}")
            if plane.dtype != np.uint8:
                raise CodecError(f"expected a uint8 luma plane, got {plane.dtype}")
            if plane.shape != shape:
                raise CodecError(
                    f"frame shapes differ within a video: {shape} and {plane.shape}")
        activities: List[FrameActivity] = []
        if previous is None:
            activities.append(FrameActivity(first_index, 1.0, is_first=True))
        if len(stack) > 1:
            index = first_index + len(activities)
            activities += [FrameActivity(index + offset, novelty)
                           for offset, novelty
                           in enumerate(self._novelties(stack))]
        return activities

    def _novelties(self, stack: List[np.ndarray]) -> List[float]:
        """``novel_block_fraction`` of frames ``1..m-1`` of ``stack``, each
        against the one before."""
        block, radius = self.block_size, self.search_radius
        height, width = stack[0].shape
        padded_h, padded_w = padded_shape(height, width, block)
        # Pad to the block grid, then by the search radius: both
        # replicate edges, so one replication of the frame's border does.
        padded = np.empty((len(stack), padded_h + 2 * radius,
                           padded_w + 2 * radius), dtype=np.int16)
        padded[:, radius:radius + height, radius:radius + width] = stack
        padded[:, :radius] = padded[:, radius:radius + 1]
        padded[:, radius + height:] = padded[:, radius + height - 1:radius + height]
        padded[:, :, :radius] = padded[:, :, radius:radius + 1]
        padded[:, :, radius + width:] = padded[:, :, radius + width - 1:radius + width]
        sads = integer_candidate_sads(padded, block, radius,
                                      _FRAME_BATCH_ELEMENTS)
        best = sads.argmin(axis=0)  # first minimum: the origin wins ties
        del sads  # freed before the prediction's stacks are allocated
        pairs, blocks_y, blocks_x = best.shape
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
        current = (padded[1:, radius:radius + padded_h, radius:radius + padded_w]
                   .reshape(pairs, blocks_y, block, blocks_x, block)
                   .transpose(0, 1, 3, 2, 4))
        residual = np.subtract(current, prediction, out=prediction)
        novel_pixels = (np.abs(residual, out=residual)
                        > _NOVEL_LEVEL).sum(axis=(3, 4))
        novel = np.count_nonzero(novel_pixels >= NOVEL_PIXEL_COUNT, axis=(1, 2))
        count = blocks_y * blocks_x
        return [novel_count / count for novel_count in novel.tolist()]


def novelty_series(activities: Sequence[FrameActivity]) -> np.ndarray:
    """Extract the ``novel_block_fraction`` series from an analysis pass."""
    return np.array([a.novel_block_fraction for a in activities], dtype=np.float64)
