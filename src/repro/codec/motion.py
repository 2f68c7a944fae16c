"""Block-matching motion estimation and compensation.

The encoder predicts every P-frame block from the previous frame shifted by
a per-block motion vector.  Motion search is a candidate-set search (the
zero vector plus a small square neighbourhood), evaluated for *all* blocks
of a frame and a whole batch of candidates simultaneously: the shifted
reference planes are stacked, differenced against the current frame once,
and reduced to per-block SADs with whole-stack adds, which keeps
pure-numpy encoding fast enough for multi-thousand-frame videos.  The
scene-cut analysis of raw ``uint8`` frames runs the same search over a
whole batch of frames in 2-byte integers (:func:`integer_candidate_sads`),
which is exact in any summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..contracts import PRECISION_EXACT, resolve_contract, validate_precision
from ..errors import CodecError
from .blocks import DEFAULT_BLOCK_SIZE, from_blocks, pad_plane, to_blocks


@lru_cache(maxsize=32)
def candidate_offsets(search_radius: int, step: int = 1) -> Tuple[Tuple[int, int], ...]:
    """Candidate motion vectors: the origin plus a square grid of offsets.

    Args:
        search_radius: Maximum absolute displacement in pixels per axis.
        step: Grid step between candidates.

    Returns:
        Tuple of ``(dy, dx)`` candidates, origin first.
    """
    if search_radius < 0:
        raise CodecError(f"search_radius must be >= 0, got {search_radius}")
    if step <= 0:
        raise CodecError(f"step must be positive, got {step}")
    offsets: List[Tuple[int, int]] = [(0, 0)]
    for dy in range(-search_radius, search_radius + 1, step):
        for dx in range(-search_radius, search_radius + 1, step):
            if (dy, dx) != (0, 0):
                offsets.append((dy, dx))
    return tuple(offsets)


def pad_edge(plane: np.ndarray, radius: int) -> np.ndarray:
    """Pad a plane by ``radius`` on every side with edge replication.

    Equivalent to ``np.pad(plane, radius, mode="edge")`` but hand-rolled —
    np.pad's generic machinery dominates the copy cost on this per-frame
    hot path.
    """
    if radius <= 0:
        return plane
    height, width = plane.shape
    padded = np.empty((height + 2 * radius, width + 2 * radius),
                      dtype=plane.dtype)
    padded[radius:height + radius, radius:width + radius] = plane
    padded[:radius, radius:width + radius] = plane[0]
    padded[height + radius:, radius:width + radius] = plane[-1]
    padded[:, :radius] = padded[:, radius:radius + 1]
    padded[:, width + radius:] = padded[:, width + radius - 1:width + radius]
    return padded


def shift_plane(plane: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shift a plane by ``(dy, dx)`` with edge replication.

    A positive ``dy`` moves content downwards, i.e. the value at ``(y, x)``
    of the result is the value at ``(y - dy, x - dx)`` of the input clamped
    to the frame.
    """
    height, width = plane.shape
    ys = np.clip(np.arange(height) - dy, 0, height - 1)
    xs = np.clip(np.arange(width) - dx, 0, width - 1)
    return plane[np.ix_(ys, xs)]


@dataclass
class MotionField:
    """Result of motion estimation for one frame.

    Attributes:
        vectors: Integer motion vectors, shape ``(blocks_y, blocks_x, 2)``
            ordered ``(dy, dx)``.
        block_sad: Best per-block sum of absolute differences.
        zero_sad: Per-block SAD of the zero-motion candidate.
        block_size: Block edge length used for the estimation.
    """

    vectors: np.ndarray
    block_sad: np.ndarray
    zero_sad: np.ndarray
    block_size: int

    @property
    def nonzero_vector_fraction(self) -> float:
        """Fraction of blocks with a non-zero motion vector."""
        moving = np.any(self.vectors != 0, axis=2)
        return float(moving.mean())


#: Upper bound, in array elements, on one candidate batch of the motion
#: search (32 k float64 = 256 KiB).  Small frames put every candidate in a
#: single ``(c, H, W)`` stack, so the search costs a handful of numpy calls
#: instead of three per candidate; large frames fall back towards one plane
#: at a time, so the stack and its reduction temporaries stay cache-sized
#: instead of streaming 25 planes through memory.
_BATCH_ELEMENTS = 32768


@lru_cache(maxsize=32)
def offset_table(search_radius: int, step: int) -> np.ndarray:
    """:func:`candidate_offsets` as a read-only ``(n, 2)`` int16 table."""
    table = np.asarray(candidate_offsets(search_radius, step), dtype=np.int16)
    table.setflags(write=False)
    return table


class MotionSearch:
    """A configured motion search that reuses its candidate stack.

    Both precisions run the one candidate skeleton
    (:meth:`_candidate_sads`) and differ only in the dtype of the SAD
    surface, the per-block reduction, and the fast mode's near-tie fallback:

    * ``"exact"`` (default) — float64 SADs summed in numpy's own order
      (:func:`_block_sums_exact`), bit-identical to the seed's
      per-candidate search;
    * ``"fast"`` — float32 SADs reduced with two dot products against a
      ones vector (:func:`_block_sums_fast`).  Both changes reassociate the
      summation, so the values live under ``contract.sad_values`` rather
      than the bit-identity contract.  Argmin stability is restored where
      it matters: every block whose float32 gap between best and
      second-best candidate falls inside the ``contract.sad_tie`` margin
      has its full candidate row recomputed in float64 and its winner (and
      SAD) replaced by the exact result — so genuine ties resolve by the
      first-candidate-wins rule, and a fast/exact vector disagreement can
      only happen when two candidates are *nearly* tied beyond float32
      resolution but outside the margin, which ``contract.sad_argmin``
      budgets for.

    An encoder or analyser searches frame after frame of one video, so it
    builds one ``MotionSearch`` and calls it per frame pair: the candidate
    stack is then allocated once.  A fresh quarter-megabyte stack per
    search sits at the top of the heap together with the reduction's
    temporaries, where — depending on what the process allocated before —
    glibc trims it back to the OS on every free: 23 page faults per search,
    41 k per pass of the ``offline_build`` benchmark, 15 % of its wall
    clock.  :func:`estimate_motion` is the one-shot form.  Instances are
    not re-entrant.

    Args:
        block_size: Macroblock size.
        search_radius: Maximum displacement searched per axis.
        search_step: Candidate grid step (``2`` halves the search cost).
        precision: ``"exact"`` or ``"fast"``; the fast path's near-tie
            margin comes from the precision's numeric contract.
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE,
                 search_radius: int = 3, search_step: int = 1,
                 precision: str = PRECISION_EXACT) -> None:
        self.precision = validate_precision(precision)
        self.contract = resolve_contract(precision)
        self.block_size = block_size
        self.search_radius = search_radius
        self.search_step = search_step
        self._offsets = candidate_offsets(search_radius, search_step)
        self._offset_table = offset_table(search_radius, search_step)
        self._stack: Optional[np.ndarray] = None

    def __call__(self, reference: np.ndarray, current: np.ndarray) -> MotionField:
        """Estimate per-block motion of ``current`` with respect to ``reference``.

        Args:
            reference: Previous (reference) luma plane, float or uint8.
            current: Current luma plane of the same shape.

        Returns:
            The :class:`MotionField` with the best candidate per block.
        """
        block_size = self.block_size
        reference = np.asarray(reference, dtype=np.float64)
        current = np.asarray(current, dtype=np.float64)
        if reference.shape != current.shape:
            raise CodecError(
                f"reference {reference.shape} and current {current.shape} differ in shape")
        if current.size == 0:
            raise CodecError(f"cannot search motion on an empty plane {current.shape}")
        reference = pad_plane(reference, block_size)
        current = pad_plane(current, block_size)
        # Pad the reference once by the search radius (edge replication);
        # every candidate shift is then a pure slice view into the padded
        # plane: ``padded[r-dy : r-dy+H, r-dx : r-dx+W]`` equals
        # ``shift_plane(reference, dy, dx)`` for every ``|dy|, |dx| <= r``.
        padded = pad_edge(reference, self.search_radius)
        if self.precision == PRECISION_EXACT:
            sads = self._candidate_sads(padded, current, _block_sums_exact)
            # argmin returns the first minimum along the candidate axis: the
            # first-candidate-wins tie-break (origin first).
            best_index = sads.argmin(axis=0)
            block_sad = sads.min(axis=0)
            zero_sad = sads[0]
        else:
            sads = self._candidate_sads(padded.astype(np.float32),
                                        current.astype(np.float32),
                                        _block_sums_fast)
            best_index = sads.argmin(axis=0)
            block_sad = sads.min(axis=0).astype(np.float64)
            zero_sad = sads[0].astype(np.float64)
            if len(self._offsets) > 1:
                runner_up = np.partition(sads, 1, axis=0)[1].astype(np.float64)
                near_tie = ((runner_up - block_sad)
                            <= self.contract.sad_tie.margin(block_sad))
                if np.any(near_tie):
                    tied_y, tied_x = np.nonzero(near_tie)
                    exact_sads = _exact_block_sads(
                        padded, current, block_size, self.search_radius,
                        self._offsets, tied_y, tied_x)
                    best_index[near_tie] = exact_sads.argmin(axis=0)
                    block_sad[near_tie] = exact_sads.min(axis=0)
                    zero_sad[near_tie] = exact_sads[0]
        return MotionField(vectors=self._offset_table[best_index],
                           block_sad=block_sad, zero_sad=zero_sad,
                           block_size=block_size)

    def _candidate_sads(self, padded: np.ndarray, current: np.ndarray,
                        block_sums) -> np.ndarray:
        """Per-block SAD of every candidate: shape ``(candidates, by, bx)``.

        ``padded`` is the block-aligned reference pre-padded by the search
        radius and ``current`` the block-aligned current plane, both in the
        dtype the SAD surface is computed in.  Candidates are evaluated a
        batch at a time (see :data:`_BATCH_ELEMENTS`): their shifted views
        are gathered into one ``(c, H, W)`` stack, differenced against
        ``current`` with one subtract and one abs, and reduced per block by
        ``block_sums(stack, block_size)``.
        """
        offsets, radius, block_size = self._offsets, self.search_radius, self.block_size
        height, width = current.shape
        batch = max(1, min(len(offsets), _BATCH_ELEMENTS // (height * width)))
        stack = self._stack
        if (stack is None or stack.shape != (batch, height, width)
                or stack.dtype != current.dtype):
            stack = self._stack = np.empty((batch, height, width),
                                           dtype=current.dtype)
        sads = np.empty((len(offsets), height // block_size, width // block_size),
                        dtype=current.dtype)
        for start in range(0, len(offsets), batch):
            chunk = offsets[start:start + batch]
            diff = stack[:len(chunk)]
            for plane, (dy, dx) in zip(diff, chunk):
                plane[...] = padded[radius - dy:radius - dy + height,
                                    radius - dx:radius - dx + width]
            np.subtract(diff, current, out=diff)
            np.abs(diff, out=diff)
            sads[start:start + len(chunk)] = block_sums(diff, block_size)
        return sads


def estimate_motion(reference: np.ndarray, current: np.ndarray,
                    block_size: int = DEFAULT_BLOCK_SIZE,
                    search_radius: int = 3, search_step: int = 1,
                    precision: str = PRECISION_EXACT) -> MotionField:
    """One-shot :class:`MotionSearch`: configure, search one frame pair.

    Args:
        reference: Previous (reference) luma plane, float or uint8.
        current: Current luma plane of the same shape.
        block_size: Macroblock size.
        search_radius: Maximum displacement searched per axis.
        search_step: Candidate grid step (``2`` halves the search cost).
        precision: ``"exact"`` (default, bit-identical to the seed
            implementation) or ``"fast"`` (float32 SADs under the tolerance
            contract).

    Returns:
        The :class:`MotionField` with the best candidate per block.
    """
    return MotionSearch(block_size, search_radius, search_step,
                        precision)(reference, current)


def integer_sad_dtype(block_size: int) -> Optional[np.dtype]:
    """The 2-byte accumulator that holds a block SAD of ``uint8`` planes.

    A ``b x b`` block SAD of ``uint8`` planes is at most ``b² · 255``:
    ``int16`` holds it while that is below 2¹⁵ (``b <= 11``), ``uint16``
    while it is below 2¹⁶ (``b <= 16``).  Larger blocks have no 2-byte
    accumulator and return ``None``.
    """
    bound = block_size * block_size * 255
    if bound < 1 << 15:
        return np.dtype(np.int16)
    if bound < 1 << 16:
        return np.dtype(np.uint16)
    return None


def integer_block_sums(stack: np.ndarray, block_size: int) -> np.ndarray:
    """Per-block sums of an integer ``(n, H, W)`` stack, in its own dtype.

    Integer addition is associative, so the terms are added in whatever
    order keeps numpy's inner loops long: the ``b`` rows of every block
    are folded in halves with whole-row adds, in place, then the ``b``
    columns of the ``b``-times smaller result are added as strided lanes.
    ``stack`` is the scratch space, so its contents are lost.  The caller
    picks a dtype that holds a whole block's sum (see
    :func:`integer_sad_dtype`).
    """
    count, height, width = stack.shape
    rows = stack.reshape(count, height // block_size, block_size, width)
    size = block_size
    while size > 1:
        # Rows [0, half) gain rows [size - half, size); an odd middle row
        # stays where it is for the next fold.
        half = size // 2
        np.add(rows[:, :, :half], rows[:, :, size - half:size],
               out=rows[:, :, :half])
        size -= half
    lanes = rows[:, :, 0].reshape(count, height // block_size,
                                  width // block_size, block_size)
    sums = lanes[..., 0].copy()
    for lane in range(1, block_size):
        sums += lanes[..., lane]
    return sums


def integer_candidate_sads(padded: np.ndarray, block_size: int,
                           search_radius: int, search_step: int,
                           budget: int) -> np.ndarray:
    """Block SADs of every candidate for a batch of consecutive ``uint8`` frames.

    ``padded`` is an ``int16`` stack ``(m, H + 2r, W + 2r)`` of ``m``
    frames, each block-padded to ``(H, W)`` and edge-padded by the search
    radius ``r`` (:func:`pad_plane` then :func:`pad_edge`).  Frame ``j`` is
    searched against frame ``j - 1``, so the result has shape
    ``(candidates, m - 1, H / b, W / b)``, candidates in
    :func:`candidate_offsets` order, in the dtype of
    :func:`integer_sad_dtype`.

    Every SAD is an integer below that dtype's range, and integer sums are
    exact in any order: the result equals the float64 search's SADs
    exactly, so its argmin (first minimum, origin first) picks the same
    vectors.  One subtract per candidate covers the whole batch; the abs
    and the block sums cover up to ``budget`` elements of candidates at a
    time, so a single frame pair still takes a handful of numpy calls.
    """
    dtype = integer_sad_dtype(block_size)
    if dtype is None:
        raise CodecError(
            f"block size {block_size} has no 2-byte SAD accumulator")
    offsets = candidate_offsets(search_radius, search_step)
    radius = search_radius
    frames = padded.shape[0] - 1
    height = padded.shape[1] - 2 * radius
    width = padded.shape[2] - 2 * radius
    reference = padded[:-1]
    current = padded[1:, radius:radius + height, radius:radius + width]
    batch = max(1, min(len(offsets), budget // (frames * height * width)))
    stack = np.empty((batch, frames, height, width), dtype=np.int16)
    sads = np.empty((len(offsets), frames, height // block_size,
                     width // block_size), dtype=dtype)
    for start in range(0, len(offsets), batch):
        chunk = offsets[start:start + batch]
        diff = stack[:len(chunk)]
        for plane, (dy, dx) in zip(diff, chunk):
            np.subtract(reference[:, radius - dy:radius - dy + height,
                                  radius - dx:radius - dx + width],
                        current, out=plane)
        np.abs(diff, out=diff)
        # |diff| <= 255, so the int16 bits read the same as uint16.
        sums = integer_block_sums(
            diff.view(dtype).reshape(len(chunk) * frames, height, width),
            block_size)
        sads[start:start + len(chunk)] = sums.reshape(
            len(chunk), frames, *sads.shape[2:])
    return sads


def _block_sums_exact(diff: np.ndarray, block_size: int) -> np.ndarray:
    """Per-block sums of a ``(c, H, W)`` stack, bit-identical to the seed's.

    The seed summed each candidate's ``(by, b, bx, b)`` plane view with
    ``.sum(axis=(1, 3))``, and every SAD, argmin and tie-break downstream
    (frame types, sizes, golden digests) is pinned to the rounding of that
    call.  Float addition is not associative, so the order is spelled out
    here instead of being left to whatever loop numpy picks for a
    differently shaped array.  What numpy does for that call: the
    contiguous block row is the inner loop and is summed *pairwise* — for
    ``8 <= b <= 128`` that is eight strided accumulators
    ``r[j] = a[j] + a[8+j] + ...`` combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` with any ``b % 8`` tail added
    one element at a time — and the ``b`` row sums of a block are then
    accumulated top to bottom.  Doing the same with whole-stack slices
    costs ``b + 2`` adds per batch rather than one small reduction per
    candidate.  The remaining shapes keep the multi-axis ``sum``, whose
    inner loop over the stack is the one it runs over a single plane: other
    block sizes (a plain left-to-right loop below 8, recursive halving
    above 128), and a frame one block wide, where consecutive block rows
    are contiguous and numpy sums the whole ``b * b`` block as one run.
    """
    count, height, width = diff.shape
    blocks_y, blocks_x = height // block_size, width // block_size
    if not 8 <= block_size <= 128 or blocks_x == 1:
        return diff.reshape(count, blocks_y, block_size, blocks_x,
                            block_size).sum(axis=(2, 4))
    rows = diff.reshape(count, height, blocks_x, block_size)
    whole = block_size - block_size % 8
    lanes = rows[..., :8]
    if whole > 8:
        lanes = lanes + rows[..., 8:16]
        for start in range(16, whole, 8):
            lanes += rows[..., start:start + 8]
    pairs = lanes[..., 0::2] + lanes[..., 1::2]
    quads = pairs[..., 0::2] + pairs[..., 1::2]
    row_sums = quads[..., 0] + quads[..., 1]
    for index in range(whole, block_size):
        row_sums += rows[..., index]
    row_sums = row_sums.reshape(count, blocks_y, block_size, blocks_x)
    sums = row_sums[:, :, 0] + row_sums[:, :, 1]
    for row in range(2, block_size):
        sums += row_sums[:, :, row]
    return sums


def _block_sums_fast(diff: np.ndarray, block_size: int) -> np.ndarray:
    """Per-block sums of a ``(c, H, W)`` stack as two dot products.

    A matmul against a ones vector over the inner block axis, then over the
    block-row axis, instead of numpy's generic two-small-axis reduction.
    """
    count, height, width = diff.shape
    ones = np.ones(block_size, dtype=diff.dtype)
    blocked = diff.reshape(count, height // block_size, block_size,
                           width // block_size, block_size)
    return (blocked @ ones).transpose(0, 1, 3, 2) @ ones


def _exact_block_sads(padded: np.ndarray, current: np.ndarray,
                      block_size: int, search_radius: int,
                      offsets: Tuple[Tuple[int, int], ...],
                      tied_y: np.ndarray, tied_x: np.ndarray) -> np.ndarray:
    """float64 SADs of every candidate for the selected blocks.

    The fast search's near-tie fallback.  ``padded`` is the reference plane
    pre-padded by ``search_radius``.  Returns an array of shape
    ``(num_candidates, num_blocks)`` in candidate order (origin first),
    computed entirely in float64 so its argmin resolves ties like the exact
    search does.
    """
    current_blocks = to_blocks(current, block_size)
    tied_blocks = current_blocks[tied_y, tied_x]
    windows = sliding_window_view(padded, (block_size, block_size))
    rows = tied_y * block_size
    cols = tied_x * block_size
    sads = np.empty((len(offsets), len(tied_y)))
    for index, (dy, dx) in enumerate(offsets):
        shifted = windows[search_radius - dy + rows, search_radius - dx + cols]
        sads[index] = np.abs(shifted - tied_blocks).sum(axis=(1, 2))
    return sads


def motion_compensate(reference: np.ndarray, field: MotionField,
                      output_shape: Tuple[int, int]) -> np.ndarray:
    """Build the motion-compensated prediction of the current frame.

    Every block is fetched from the edge-padded reference displaced by its
    own vector in one gather.  A field without motion predicts the
    reference itself, so the result may be a view of ``reference``: callers
    that mutate it should copy first.

    Args:
        reference: Previous reconstructed luma plane.
        field: Motion field estimated for the current frame.
        output_shape: ``(height, width)`` of the original (unpadded) frame.

    Returns:
        The prediction plane cropped to ``output_shape``.
    """
    block_size = field.block_size
    vectors = field.vectors
    reference = pad_plane(np.asarray(reference, dtype=np.float64), block_size)
    blocks_y, blocks_x = vectors.shape[:2]
    expected_shape = (blocks_y * block_size, blocks_x * block_size)
    if reference.shape != expected_shape:
        raise CodecError(
            f"reference shape {reference.shape} does not match motion field "
            f"{expected_shape}")
    if vectors.any():
        radius = int(np.abs(vectors).max())
        windows = sliding_window_view(pad_edge(reference, radius),
                                      (block_size, block_size))
        rows = (np.arange(blocks_y) * block_size + radius)[:, None]
        cols = (np.arange(blocks_x) * block_size + radius)[None, :]
        reference = from_blocks(windows[rows - vectors[:, :, 0],
                                        cols - vectors[:, :, 1]])
    return reference[:output_shape[0], :output_shape[1]]
