"""Block-matching motion estimation and compensation.

The encoder predicts every P-frame block from the previous frame shifted by
a per-block motion vector.  Motion search is a candidate-set search (the
zero vector plus a small square neighbourhood), evaluated for *all* blocks
of a frame and a whole batch of candidates simultaneously.  The encoder's
search (:class:`MotionSearch`) screens every candidate in integers, on
planes rounded to a fixed point, and settles in float64 only the blocks
whose winner the rounding could have changed.  The scene-cut analysis
searches a whole batch of ``uint8`` frames in integers
(:func:`integer_candidate_sads`), which is exact in any summation order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..config import validate_precision, whole_number
from ..errors import CodecError
from .blocks import DEFAULT_BLOCK_SIZE, block_grid, padded_shape


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


class MotionField:
    """Result of motion estimation for one frame.

    Attributes:
        vectors: Integer motion vectors, shape ``(blocks_y, blocks_x, 2)``
            ordered ``(dy, dx)``.
        block_size: Block edge length used for the estimation.
    """

    def __init__(self, vectors: np.ndarray, block_size: int) -> None:
        self.vectors = vectors
        self.block_size = block_size


#: Upper bound, in array elements, on one candidate batch of the search's
#: ``int16`` screen (512 KiB): every candidate of a 58 x 102 frame (25
#: planes of 64 rows at a 112-element pitch) fits one batch; a frame whose
#: grid row of candidates does not fit takes fewer candidates a batch, down
#: to one.
_SCREEN_BATCH_ELEMENTS = 1 << 18

#: The widest span, in fixed-point units, of the values of a screened frame
#: pair.  With the origin inside it, every rounded value and every
#: ``|difference|`` of two is at most 2¹⁴ - 1, so four of them sum in
#: ``uint16``: the first two row folds of a block need no wider type.
_FIXED_POINT_SPAN = (1 << 14) - 2

#: The bound on one screened ``|difference|``: the span, plus one for the
#: rounding of its two ends.
_SCREEN_TERM_BOUND = _FIXED_POINT_SPAN + 1

#: Spans above this (~1e301) are not screened: their float64 differences
#: may overflow, which no bound covers.
_MAX_SCREENED_SPAN = 2.0 ** 1000


@lru_cache(maxsize=32)
def offset_table(search_radius: int, step: int) -> np.ndarray:
    """:func:`candidate_offsets` as a read-only ``(n, 2)`` int16 table."""
    table = np.asarray(candidate_offsets(search_radius, step), dtype=np.int16)
    table.setflags(write=False)
    return table


def _fixed_point_shift(low: float, high: float) -> Optional[int]:
    """The ``k`` of the screen's fixed point ``rint(x · 2^k)`` for values
    in ``[low, high]``, or ``None`` when the span is too wide to screen.

    ``k`` is the largest with ``(max(high, 0) - min(low, 0)) · 2^k`` at most
    :data:`_FIXED_POINT_SPAN`, capped at 1000 (a zero span allows any).
    """
    span = max(high, 0.0) - min(low, 0.0)
    if not span <= _MAX_SCREENED_SPAN:
        return None
    if span * 2.0 ** 1000 <= _FIXED_POINT_SPAN:
        return 1000
    shift = math.frexp(_FIXED_POINT_SPAN / span)[1] - 1
    while span * 2.0 ** shift > _FIXED_POINT_SPAN:
        shift -= 1
    return shift


class MotionSearch:
    """A configured motion search that keeps its buffers between frames.

    The search is bit-identical to the seed's per-candidate float64 search
    (SADs summed in numpy's own order, :func:`_block_sums_exact`), without
    computing its SAD surface: it screens every candidate in integers and
    settles in float64 only the blocks the screen cannot decide
    (:meth:`_search_exact`).

    An encoder builds one ``MotionSearch`` for a video and calls
    :meth:`_search_exact` per frame pair with the video's plane bounds, so
    the screen is allocated once per frame size.  A fresh stack per search
    sits at the top of the heap, where glibc may trim it back to the OS on
    every free (41 k page faults per ``offline_build`` pass, 15 % of its
    wall clock).  A call checks the pair and takes its own bounds;
    :func:`estimate_motion` is the one-shot form.  Not re-entrant.

    Args:
        block_size: Macroblock size.
        search_radius: Maximum displacement searched per axis.
        search_step: Candidate grid step (``2`` halves the search cost).

    Raises:
        CodecError: If the block size, radius or step is not a whole number
            (a bool is not one) in range.
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE,
                 search_radius: int = 3, search_step: int = 1) -> None:
        self.block_size = whole_number(block_size, "block_size", CodecError, 1)
        self.search_radius = whole_number(search_radius, "search_radius",
                                          CodecError, 0)
        self.search_step = whole_number(search_step, "search_step",
                                        CodecError, 1)
        self._offsets = candidate_offsets(self.search_radius, self.search_step)
        self._offset_table = offset_table(self.search_radius, self.search_step)
        self._screen: Optional[_Screen] = None

    def __call__(self, reference: np.ndarray, current: np.ndarray) -> MotionField:
        """Estimate per-block motion of ``current`` with respect to ``reference``.

        Args:
            reference: Previous (reference) luma plane, float or uint8.
            current: Current luma plane of the same shape.

        Returns:
            The :class:`MotionField` with the best candidate per block.

        Raises:
            CodecError: If the planes differ in shape, are empty or not 2-D,
                are complex, or hold a NaN or an infinity.
        """
        reference, current = np.asarray(reference), np.asarray(current)
        if reference.shape != current.shape:
            raise CodecError(
                f"reference {reference.shape} and current {current.shape} differ in shape")
        if current.size == 0:
            raise CodecError(f"cannot search motion on an empty plane {current.shape}")
        if current.ndim != 2:
            raise CodecError(f"expected a 2-D luma plane, got shape {current.shape}")
        if "c" in (reference.dtype.kind, current.dtype.kind):
            raise CodecError(
                f"cannot search motion on complex planes ({reference.dtype}, "
                f"{current.dtype})")
        reference = reference.astype(np.float64, copy=False)
        current = current.astype(np.float64, copy=False)
        low = float(np.minimum(reference.min(), current.min()))
        high = float(np.maximum(reference.max(), current.max()))
        if not (math.isfinite(low) and math.isfinite(high)):
            raise CodecError("cannot search motion on a plane with NaN or infinity")
        return self._search_exact(reference, current, low, high)

    # ------------------------------------------------------------------ #
    # Exact: screen, bound, settle
    # ------------------------------------------------------------------ #
    def _search_exact(self, reference: np.ndarray, current: np.ndarray,
                      low: float, high: float) -> MotionField:
        """The exact search on finite float64 planes.

        **Screen.** Both planes are rounded to the fixed point
        ``q = rint(x · 2^k)``, with ``k`` as large as keeps every value and
        every ``|difference|`` below 2¹⁴ (:func:`_fixed_point_shift`; 6
        for planes in ``[0, 255]``), and every candidate's block SAD ``Q``
        is summed exactly in integers (:class:`_Screen`).

        **Bound.** Scaling by ``2^k`` is exact, so each rounding is off by
        at most ``2^-(k+1)``, and each ``|q_r - q_c| / 2^k`` by at most
        ``2^-k`` from ``|r - c|``: over ``n = b²`` terms, ``Q / 2^k`` is
        within ``n · 2^-k`` of the true SAD.  The pinned float64 SAD is
        within ``γ_n · S <= n² · 2^-52 · span`` of the true SAD ``S``
        (``n`` rounded subtractions and additions of non-negative terms, in
        any order; ``span`` bounds every ``|r - c|``).  Together the pinned
        SAD is within ``E = n · 2^-k + n² · 2^-52 · span`` of ``Q / 2^k``,
        so a candidate whose ``Q`` exceeds the block's screened minimum by
        more than ``2E · 2^k`` is *strictly* worse than the candidate at
        that minimum and cannot be the pinned argmin.

        **Settle.** A block with one candidate left is decided.  The others
        get float64 SADs of just their candidates, summed in the pinned
        order over the pinned layout (:func:`_settled_sads`), and take the
        first minimum in candidate order — the seed's tie-break.

        **Bounds.** ``[low, high]`` need only hold both planes: a wider one
        only coarsens the screen (a smaller ``k``, a larger ``span``, which
        still bounds every ``|r - c|``); the encoder passes one per video.
        """
        block_size = self.block_size
        shift = _fixed_point_shift(low, high)
        if shift is None:
            # Nothing to screen with: every candidate stays in the running.
            blocks_y, blocks_x = block_grid(*current.shape, block_size)
            screened = np.zeros((len(self._offsets), blocks_y, blocks_x),
                                dtype=np.int64)
            margin = 0
            slot_candidates = np.arange(len(self._offsets))
        else:
            screen = self._screen
            if screen is None or screen.shape != current.shape:
                screen = self._screen = _Screen(
                    current.shape, block_size, self.search_radius,
                    self.search_step)
            scale = 2.0 ** shift
            screened = screen(reference, current, scale)
            slot_candidates = screen.slot_candidates
            # 2E · 2^k, rounded up past any rounding of its float part.  The
            # screen's accumulator holds the minimum plus this margin.
            terms = block_size * block_size
            margin = 2 * terms + 1 + int(
                2.0 * terms * terms * (high - low) * scale * 2.0 ** -52)
        running = screened <= screened.min(axis=0) + margin
        winners = slot_candidates[screened.argmin(axis=0)]
        if np.count_nonzero(running) > winners.size:
            self._settle(reference, current, running,
                         running.sum(axis=0) > 1, slot_candidates, winners)
        return MotionField(self._offset_table[winners], block_size)

    def _settle(self, reference: np.ndarray, current: np.ndarray,
                running: np.ndarray, tied: np.ndarray,
                slot_candidates: np.ndarray, winners: np.ndarray) -> None:
        """Decide the ``tied`` blocks in float64, writing into ``winners``.

        ``running`` marks, per screen slot and block, the candidates the
        bound leaves in the running.  Only the candidates some tied block
        still runs, and only the block rows holding tied blocks, are
        summed; a candidate that is out of the running in one of those
        blocks is strictly worse there than a running one, so it cannot
        change that block's first minimum.
        """
        tied_y, tied_x = np.nonzero(tied)
        slots = np.flatnonzero(running[:, tied_y, tied_x].any(axis=1))
        candidates = np.sort(slot_candidates[slots])
        tied_rows = tied.any(axis=1)
        sads = _settled_sads(reference, current, self.block_size,
                             self._offset_table[candidates],
                             np.flatnonzero(tied_rows))
        row_of = np.cumsum(tied_rows) - 1
        winners[tied_y, tied_x] = candidates[
            sads[:, row_of[tied_y], tied_x].argmin(axis=0)]


class _Screen:
    """The exact search's integer screen for one frame size.

    It keeps the fixed-point pair and the candidate stack.  Both planes are
    block-padded to ``(H, W)``, padded by the search radius ``r``, and
    stored with a row pitch ``P``, the next multiple of ``b`` from
    ``W + 2r``, plus one spare row.  In a plane that flat, the rows
    ``r - dy .. r - dy + H`` of a candidate's shifted reference, starting
    at column ``r - dx``, are one run of ``H · P`` elements, and so are the
    current plane's rows: every candidate's difference is one contiguous
    subtract, and the grid of candidates one strided view of them
    (:meth:`__call__`).  The ``P - W`` columns past each row are scratch,
    summed into blocks that are never read.

    Candidates are taken in *slot* order: the square grid of shifts, grid
    row by grid row with dy and dx descending, then the origin when the
    grid misses it (a radius that is not a multiple of the step).
    ``slot_candidates`` maps each slot to its :func:`candidate_offsets`
    index.
    """

    def __init__(self, shape: Tuple[int, int], block_size: int,
                 radius: int, step: int) -> None:
        self.shape = shape
        self.block_size = block_size
        self.radius = radius
        height, width = padded_shape(*shape, block_size)
        self.blocks_x = width // block_size
        pitch = -(-(width + 2 * radius) // block_size) * block_size
        self.fixed = np.empty((2, height + 2 * radius + 1, pitch),
                              dtype=np.int16)
        run = height * pitch
        self.current = self.fixed[1].reshape(-1)[
            radius * pitch + radius:radius * pitch + radius + run]
        flat = self.fixed[0].reshape(-1)
        item = flat.itemsize
        first = 2 * radius % step
        across = 2 * radius // step + 1
        parts = [as_strided(flat[first * pitch + first:],
                            shape=(across, across, run),
                            strides=(step * pitch * item, step * item, item),
                            writeable=False)]
        index = {offset: position for position, offset
                 in enumerate(candidate_offsets(radius, step))}
        slots = [index[(radius - y, radius - x)]
                 for y in range(first, 2 * radius + 1, step)
                 for x in range(first, 2 * radius + 1, step)]
        if radius % step:
            parts.append(flat[radius * pitch + radius:][:run][None, None])
            slots.append(0)
        self.slot_candidates = np.asarray(slots)
        # Batches under the element budget, in slot order: whole grid rows
        # while one fits, else runs of candidates along a grid row.  Each
        # batch's views of the kept stack are made once.
        budget = max(1, _SCREEN_BATCH_ELEMENTS // run)
        chunks = []
        for part in parts:
            down, wide = part.shape[:2]
            if budget >= wide:
                rows = budget // wide
                chunks += [part[start:start + rows]
                           for start in range(0, down, rows)]
            else:
                chunks += [part[row:row + 1, start:start + budget]
                           for row in range(down)
                           for start in range(0, wide, budget)]
        stack = np.empty((max(chunk.shape[0] * chunk.shape[1]
                              for chunk in chunks), run), dtype=np.int16)
        self.batches = []
        for chunk in chunks:
            diff = stack[:chunk.shape[0] * chunk.shape[1]]
            self.batches.append((
                chunk, diff.reshape(chunk.shape), diff,
                diff.view(np.uint16).reshape(-1, height, pitch)))

    def __call__(self, reference: np.ndarray, current: np.ndarray,
                 scale: float) -> np.ndarray:
        """Screened block SADs ``(slots, by, bx)`` of the frame pair at
        fixed-point ``scale``: exact integers, in ``int32`` up to 362-pixel
        blocks."""
        self._fix((reference, current), scale)
        sums = []
        for chunk, out, diff, terms in self.batches:
            np.subtract(chunk, self.current, out=out)
            np.abs(diff, out=diff)
            sums.append(integer_block_sums(terms, self.block_size,
                                           _SCREEN_TERM_BOUND))
        screened = sums[0] if len(sums) == 1 else np.concatenate(sums)
        return screened[:, :, :self.blocks_x]

    def _fix(self, planes: Tuple[np.ndarray, np.ndarray], scale: float) -> None:
        """``rint(plane · scale)`` into the fixed-point pair, every edge
        replicated outwards: block padding, the search radius, the pitch
        and the spare row."""
        height, width = self.shape
        fixed, border = self.fixed, self.radius
        bottom, right = border + height, border + width
        for plane, out in zip(planes, fixed):
            np.rint(plane * scale, out=out[border:bottom, border:right],
                    casting="unsafe")
        fixed[:, :border] = fixed[:, border:border + 1]
        fixed[:, bottom:] = fixed[:, bottom - 1:bottom]
        fixed[:, :, :border] = fixed[:, :, border:border + 1]
        fixed[:, :, right:] = fixed[:, :, right - 1:right]


def _settled_sads(reference: np.ndarray, current: np.ndarray,
                  block_size: int, vectors: np.ndarray,
                  rows: np.ndarray) -> np.ndarray:
    """Pinned float64 SADs of candidates ``vectors`` on block ``rows``.

    Returns ``(len(vectors), len(rows), bx)``.  A pixel of the padded,
    shifted reference is the unpadded one at clipped coordinates (both
    paddings replicate edges), so each candidate's rows are gathered
    straight from ``reference``.  The difference planes keep the padded
    frame's width, so every block is summed over the same layout, in the
    same order, as in a whole-frame :func:`_block_sums_exact`.
    """
    height, width = current.shape
    padded_width = padded_shape(height, width, block_size)[1]
    lines = (rows[:, None] * block_size + np.arange(block_size)).reshape(-1)
    columns = np.arange(padded_width)
    diff = reference[
        np.minimum(np.maximum(lines - vectors[:, :1], 0), height - 1)[:, :, None],
        np.minimum(np.maximum(columns - vectors[:, 1:], 0), width - 1)[:, None, :]]
    np.subtract(diff, current[np.minimum(lines, height - 1)[:, None],
                              np.minimum(columns, width - 1)], out=diff)
    np.abs(diff, out=diff)
    return _block_sums_exact(diff, block_size)


def estimate_motion(reference: np.ndarray, current: np.ndarray,
                    block_size: int = DEFAULT_BLOCK_SIZE,
                    search_radius: int = 3, search_step: int = 1,
                    precision: str = "exact") -> MotionField:
    """One-shot :class:`MotionSearch`: configure, search one frame pair.

    Args:
        reference: Previous (reference) luma plane, float or uint8.
        current: Current luma plane of the same shape.
        block_size: Macroblock size.
        search_radius: Maximum displacement searched per axis.
        search_step: Candidate grid step (``2`` halves the search cost).
        precision: Checked by :func:`~repro.config.validate_precision` and
            otherwise ignored: the search has one numeric mode.  The
            benchmark still passes it; ROADMAP item 18 removes it.

    Returns:
        The :class:`MotionField` with the best candidate per block.
    """
    validate_precision(precision)
    return MotionSearch(block_size, search_radius, search_step)(reference,
                                                                current)


#: Integer accumulators of block sums, narrowest first.
_ACCUMULATORS = tuple(np.dtype(kind) for kind in
                      (np.int16, np.uint16, np.int32, np.int64))


@lru_cache(maxsize=16)
def _dtype_max(dtype: np.dtype) -> int:
    return int(np.iinfo(dtype).max)


@lru_cache(maxsize=32)
def integer_sad_dtype(block_size: int, term_bound: int) -> np.dtype:
    """The narrowest accumulator of a block SAD.

    A ``b x b`` block SAD of terms at most ``term_bound`` is at most
    ``b² · term_bound``.  For ``uint8`` planes (``term_bound`` 255)
    ``int16`` holds it while that is below 2¹⁵ (``b <= 11``), ``uint16``
    while it is below 2¹⁶ (``b <= 16``), and ``int32`` up to the largest
    block a bitstream carries (255).
    """
    bound = block_size * block_size * term_bound
    for dtype in _ACCUMULATORS:
        if bound <= _dtype_max(dtype):
            return dtype
    raise CodecError(f"block sums of {block_size} x {block_size} terms up to "
                     f"{term_bound} overflow int64")


def integer_block_sums(stack: np.ndarray, block_size: int,
                       term_bound: int) -> np.ndarray:
    """Per-block sums of a non-negative integer ``(n, H, W)`` stack whose
    terms are at most ``term_bound``.

    Integer addition is associative, so the terms are added in whatever
    order keeps numpy's inner loops long: the ``b`` image rows of every
    block row are folded in halves with whole-row adds, in place, then the
    ``b`` columns of the ``b``-times smaller result, copied lane-major.
    ``stack`` is the scratch space, so its contents are lost.  Returns
    ``(n, H / b, W / b)`` in ``integer_sad_dtype(block_size, term_bound)``.
    Folds stay in the stack's dtype while their partial sums fit it, and
    the first fold that would overflow writes a new array in that dtype.
    """
    count, height, width = stack.shape
    rows = stack.reshape(count * (height // block_size), block_size * width)
    wide = integer_sad_dtype(block_size, term_bound)
    terms = 1
    size = block_size
    while size > 1:
        # Rows [0, half) gain rows [size - half, size); an odd middle row
        # stays where it is for the next fold.
        half = size // 2
        terms *= 2
        low = rows[:, :half * width]
        high = rows[:, (size - half) * width:size * width]
        if rows.dtype != wide and terms * term_bound > _dtype_max(rows.dtype):
            wider = np.empty((rows.shape[0], (size - half) * width), dtype=wide)
            np.add(low, high, out=wider[:, :half * width], dtype=wide)
            if size % 2:
                wider[:, half * width:] = rows[:, half * width:(half + 1) * width]
            rows = wider
        else:
            np.add(low, high, out=low)
        size -= half
    # The columns, lane-major in one copy, are folded the same way.
    lanes = np.ascontiguousarray(
        rows[:, :width].reshape(len(rows), -1, block_size).transpose(2, 0, 1),
        dtype=wide)
    size = block_size
    while size > 1:
        half = size // 2
        np.add(lanes[:half], lanes[size - half:size], out=lanes[:half])
        size -= half
    return lanes[0].reshape(count, height // block_size, width // block_size)


def integer_candidate_sads(padded: np.ndarray, block_size: int,
                           search_radius: int, budget: int) -> np.ndarray:
    """Block SADs of every candidate for a batch of consecutive ``uint8`` frames.

    ``padded`` is an ``int16`` stack ``(m, H + 2r, W + 2r)`` of ``m``
    frames, each block-padded to ``(H, W)`` and edge-padded by the search
    radius ``r`` (block padding, then edge padding).  Frame ``j`` is
    searched against frame ``j - 1``, so the result has shape
    ``(candidates, m - 1, H / b, W / b)``, candidates in
    :func:`candidate_offsets` order, in ``integer_sad_dtype(b, 255)``.

    Integer sums are exact in any order: the result equals the float64
    search's SADs exactly, so its argmin (first minimum, origin first)
    picks the same vectors.  One subtract per candidate covers the whole
    batch; the abs and the block sums cover up to ``budget`` elements of
    candidates at a time, so a single frame pair still takes a handful of
    numpy calls.
    """
    dtype = integer_sad_dtype(block_size, 255)
    # |diff| <= 255, so the int16 bits read the same as uint16; blocks
    # whose sums need more than two bytes widen as they fold.
    terms = dtype if dtype.itemsize == 2 else np.dtype(np.uint16)
    offsets = candidate_offsets(search_radius)
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
        sums = integer_block_sums(
            diff.view(terms).reshape(len(chunk) * frames, height, width),
            block_size, 255)
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


class CompensationPlan:
    """Where a prediction reads each pixel from, per reference shape, block
    size and radius.  A pixel of the padded reference shifted by ``(dy,
    dx)`` is the reference's own at clipped coordinates (the paddings
    replicate edges): two tables indexed by vector component (a negative
    one wraps) give each block's rows and columns, then one ``take``."""

    def __init__(self, shape: Tuple[int, int], block_size: int,
                 radius: int) -> None:
        height, width = shape
        self.grid = blocks_y, blocks_x = block_grid(height, width, block_size)
        self.shape = (blocks_y * block_size, blocks_x * block_size)
        shifts = np.r_[0:radius + 1, -radius:0][:, None]
        self._rows = (np.clip(np.arange(self.shape[0]) - shifts, 0, height - 1)
                      * width).reshape(len(shifts), blocks_y, block_size)
        self._columns = np.clip(np.arange(self.shape[1]) - shifts, 0, width - 1
                                ).reshape(len(shifts), blocks_x, block_size)
        self._blocks = (np.arange(blocks_y)[:, None], np.arange(blocks_x))

    def __call__(self, reference: np.ndarray, vectors: np.ndarray,
                 output_shape: Tuple[int, int]) -> np.ndarray:
        """``reference`` predicted under ``vectors``, cropped to
        ``output_shape``: without motion, a view of the reference."""
        height, width = output_shape
        if (not vectors.any() and height <= reference.shape[0]
                and width <= reference.shape[1]):
            return reference[:height, :width]
        rows = self._rows[vectors[..., 0], self._blocks[0]]
        columns = self._columns[vectors[..., 1], self._blocks[1]]
        index = rows.transpose(0, 2, 1)[..., None] + columns[:, None]
        return reference.take(index.reshape(self.shape)[:height, :width])


_plan = lru_cache(maxsize=16)(CompensationPlan)


def motion_compensate(reference: np.ndarray, field: MotionField,
                      output_shape: Tuple[int, int]) -> np.ndarray:
    """Build the motion-compensated prediction of the current frame.

    Every block is fetched from the edge-padded reference displaced by its
    own vector in one gather (a :class:`CompensationPlan`, cached per shape).
    Without motion the result may be a view of ``reference``.

    Args:
        reference: Previous reconstructed luma plane.
        field: Motion field estimated for the current frame.
        output_shape: ``(height, width)`` of the original (unpadded) frame.

    Returns:
        The prediction plane cropped to ``output_shape``.
    """
    reference = np.asarray(reference, dtype=np.float64)
    if reference.ndim != 2:
        raise CodecError(f"expected a 2-D reference plane, got {reference.shape}")
    vectors = field.vectors
    plan = _plan(reference.shape, field.block_size,
                 int(np.abs(vectors).max(initial=0)))
    if vectors.shape[:2] != plan.grid:
        raise CodecError(
            f"reference shape {plan.shape} does not match motion field "
            f"{tuple(side * field.block_size for side in vectors.shape[:2])}")
    return plan(reference, vectors, output_shape)
