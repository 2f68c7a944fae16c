"""Block-matching motion estimation and compensation.

The encoder predicts every P-frame block from the previous frame shifted by
a per-block motion vector.  Motion search is a candidate-set search (the
zero vector plus a small square neighbourhood), evaluated for *all* blocks
of a frame and a whole batch of candidates simultaneously, which keeps
pure-numpy encoding fast enough for multi-thousand-frame videos.  The
search screens every candidate in integers, on planes rounded to a fixed
point, and settles in float64 only the blocks whose winner the rounding
could have changed (:meth:`MotionSearch._search_exact`).  The scene-cut
analysis of raw ``uint8`` frames runs the search over a whole batch of
frames in 2-byte integers (:func:`integer_candidate_sads`), which is exact
in any summation order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from ..config import validate_precision, whole_number
from ..errors import CodecError
from .blocks import (DEFAULT_BLOCK_SIZE, block_grid, from_blocks, pad_plane,
                     padded_shape)


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


class MotionField:
    """Result of motion estimation for one frame.

    Attributes:
        vectors: Integer motion vectors, shape ``(blocks_y, blocks_x, 2)``
            ordered ``(dy, dx)``.
        block_sad: Best per-block sum of absolute differences.
        zero_sad: Per-block SAD of the zero-motion candidate.
        block_size: Block edge length used for the estimation.

    ``block_sad`` and ``zero_sad`` are settled by ``sads()``, called once,
    when one of them is first read: the encoder reads only the vectors, and
    skips the two reductions.  Until then the search's field holds the two
    planes it searched, so they must not be changed in place.  A field
    built from vectors alone (``sads`` left out) has no SADs to read.
    """

    def __init__(self, vectors: np.ndarray, block_size: int,
                 sads: Optional[Callable[[], Tuple[np.ndarray, np.ndarray]]]
                 = None) -> None:
        self.vectors = vectors
        self.block_size = block_size
        self._settle_sads = sads
        self._sads: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _settled(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._sads is None:
            if self._settle_sads is None:
                raise CodecError("this motion field carries vectors only")
            self._sads = self._settle_sads()
            self._settle_sads = None
        return self._sads

    @property
    def block_sad(self) -> np.ndarray:
        return self._settled()[0]

    @property
    def zero_sad(self) -> np.ndarray:
        return self._settled()[1]

    @property
    def nonzero_vector_fraction(self) -> float:
        """Fraction of blocks with a non-zero motion vector."""
        moving = np.any(self.vectors != 0, axis=2)
        return float(moving.mean())


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

    An encoder or analyser searches frame after frame of one video, so it
    builds one ``MotionSearch`` and calls it per frame pair: its candidate
    stack and fixed-point planes are then allocated once per frame size.
    A fresh quarter-megabyte stack per search sits at the top of the heap
    together with the reduction's temporaries, where — depending on what
    the process allocated before — glibc trims it back to the OS on every
    free: 23 page faults per search, 41 k per pass of the ``offline_build``
    benchmark, 15 % of its wall clock.  :func:`estimate_motion` is the
    one-shot form.  Instances are not re-entrant.

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
        table = self._offset_table
        return MotionField(
            table[winners], block_size,
            lambda: _winner_sads(reference, current, table[winners],
                                 block_size))

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


def _winner_sads(reference: np.ndarray, current: np.ndarray,
                 vectors: np.ndarray, block_size: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """``(block_sad, zero_sad)`` of a decided field, in the pinned order.

    The winners' difference plane is gathered block by block and reduced
    as a whole frame with the zero vector's: every block's SAD is the
    pinned one of its winning (or zero) candidate.
    """
    reference = pad_plane(reference, block_size)
    current = pad_plane(current, block_size)
    planes = np.empty((2, *current.shape))
    planes[0] = motion_compensate(reference, MotionField(vectors, block_size),
                                  current.shape)
    planes[1] = reference
    np.subtract(planes, current, out=planes)
    np.abs(planes, out=planes)
    sads = _block_sums_exact(planes, block_size)
    return sads[0], sads[1]


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
def integer_sad_dtype(block_size: int, term_bound: int = 255,
                      widest: type = np.uint16) -> Optional[np.dtype]:
    """The narrowest accumulator, up to ``widest``, of a block SAD.

    A ``b x b`` block SAD of terms at most ``term_bound`` is at most
    ``b² · term_bound``.  For ``uint8`` planes (the defaults) ``int16``
    holds it while that is below 2¹⁵ (``b <= 11``), ``uint16`` while it is
    below 2¹⁶ (``b <= 16``); larger blocks have no 2-byte accumulator and
    return ``None``.  The exact search's screen, whose terms are below
    2¹⁴, allows up to ``int64``.
    """
    bound = block_size * block_size * term_bound
    for dtype in _ACCUMULATORS:
        if bound <= _dtype_max(dtype):
            return dtype
        if dtype == widest:
            break
    return None


def integer_block_sums(stack: np.ndarray, block_size: int,
                       term_bound: Optional[int] = None) -> np.ndarray:
    """Per-block sums of a non-negative integer ``(n, H, W)`` stack.

    Integer addition is associative, so the terms are added in whatever
    order keeps numpy's inner loops long: the ``b`` image rows of every
    block row are folded in halves with whole-row adds, in place, then the
    ``b`` columns of the ``b``-times smaller result, copied lane-major.
    ``stack`` is the scratch space, so its contents are lost.  Returns
    ``(n, H / b, W / b)``.

    Without ``term_bound`` the sums stay in the stack's dtype, which the
    caller picks to hold a whole block's sum (see
    :func:`integer_sad_dtype`).  With it — every term at most
    ``term_bound`` — folds stay in the stack's dtype while their partial
    sums fit it, and the first fold that would overflow writes a new array
    in the accumulator ``integer_sad_dtype(block_size, term_bound,
    np.int64)``, the dtype of the result.
    """
    count, height, width = stack.shape
    rows = stack.reshape(count * (height // block_size), block_size * width)
    wide = (rows.dtype if term_bound is None
            else integer_sad_dtype(block_size, term_bound, np.int64))
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
