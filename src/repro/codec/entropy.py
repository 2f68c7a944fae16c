"""Entropy coding of quantised transform coefficients.

The scheme is a byte-aligned run/level coder in the spirit of JPEG's
run-length + magnitude coding:

* coefficients of each block are visited in zig-zag order;
* every non-zero coefficient is emitted as a token byte
  ``(run << 4) | level_bytes`` followed by the level as a 1- or 2-byte
  big-endian two's-complement integer, where ``run`` is the number of zero
  coefficients skipped since the previous non-zero one (runs longer than 15
  are split with ``ZRL`` tokens, exactly like JPEG);
* each block ends with an ``EOB`` byte.

Because the format is byte aligned per block, the size of every block
can be computed exactly without materialising the payload
(:func:`encoded_block_sizes`, summed by :func:`encoded_size_bytes`), which
is what the video encoder sizes its P-frames with; :func:`encode_blocks` /
:func:`decode_block_payloads` provide the real round-trip used by the
still-image and video decoders.

Both directions are fully vectorised: encoding is a numpy run-length pass
over the zig-zag rows (``flatnonzero``/``diff`` -> token/level byte arrays
-> ``tobytes``), decoding is a token scan over a ``frombuffer`` view whose
token positions are found by pointer doubling.  The scan takes any number
of back-to-back payloads (:func:`decode_block_payloads` — the video decoder
hands it the residuals of a whole run of P-frames, the still-image decoder
every I-frame of a batch).  The per-block Python coders they replaced live in
``tests/codec/entropy_oracle.py``, where the equivalence property tests hold
the vectorised pair to them byte for byte.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from ..config import whole_number
from ..errors import BitstreamError, CodecError

#: End-of-block marker byte.
EOB = 0x00
#: Zero-run-length extension token: a run of 16 zeros with no level.
ZRL = 0xF0

#: Levels are clipped to the int16 range so they always fit two bytes.
MAX_LEVEL = 32767


@lru_cache(maxsize=8)
def zigzag_order(block_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return (forward, inverse) zig-zag permutations for a block size.

    ``forward`` maps raster index -> zig-zag position is applied as
    ``flat_block[forward]`` to obtain zig-zag order; ``inverse`` undoes it.
    """
    whole_number(block_size, "block_size", CodecError, least=1)
    indices = []
    for diagonal in range(2 * block_size - 1):
        cells = []
        for row in range(block_size):
            col = diagonal - row
            if 0 <= col < block_size:
                cells.append((row, col))
        if diagonal % 2 == 0:
            cells.reverse()
        indices.extend(cells)
    forward = np.array([row * block_size + col for row, col in indices], dtype=np.int64)
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(forward.size)
    return forward, inverse


def _to_zigzag_rows(quantised: np.ndarray) -> np.ndarray:
    """Flatten a 4-D quantised block array into (num_blocks, block²) zig-zag rows."""
    quantised = np.asarray(quantised)
    if quantised.ndim != 4 or quantised.shape[2] != quantised.shape[3]:
        raise CodecError(f"expected (by, bx, b, b) blocks, got {quantised.shape}")
    block_size = quantised.shape[2]
    forward, _ = zigzag_order(block_size)
    # ``take`` keeps the rows C-contiguous, so they ravel without a copy.
    return quantised.reshape(-1, block_size * block_size).take(forward, axis=1)


def _level_bytes(levels: np.ndarray) -> np.ndarray:
    """Number of bytes (1 or 2) needed to store each level.

    Levels are stored as signed big-endian integers, so the single-byte
    range is the asymmetric two's-complement interval [-128, 127] — using
    ``abs(level) < 128`` here would overestimate a level of exactly -128 by
    one byte and disagree with :func:`encode_blocks`.
    """
    return np.where((levels >= -128) & (levels <= 127), 1, 2)


def _nonzero_runs(rows: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(nonzero, levels, runs)`` of zig-zag ``rows``: the flat index and
    level of every non-zero coefficient, and the zero run before it, which
    reaches back to the previous non-zero one or to its block's start."""
    # numpy finds the non-zeros of a boolean array several times faster.
    nonzero = np.flatnonzero(rows != 0)
    previous = np.concatenate(([-1], nonzero[:-1]))
    block_start = nonzero - nonzero % rows.shape[1]
    runs = nonzero - np.maximum(previous, block_start - 1) - 1
    return nonzero, rows.ravel()[nonzero], runs


def encoded_block_sizes(quantised: np.ndarray) -> np.ndarray:
    """Exact :func:`encode_blocks` size of each block of a 4-D quantised
    block array, in row-major block order.  Only the non-zero coefficients
    cost anything beyond a block's EOB byte, so only they are visited: each
    costs a token byte, one or two level bytes, and a ZRL byte per full run
    of 16 zeros before it in its block."""
    rows = _to_zigzag_rows(quantised)
    num_blocks, num_coeffs = rows.shape
    nonzero, levels, runs = _nonzero_runs(rows)
    spent = np.concatenate(([0], np.cumsum(
        2 + ((levels < -128) | (levels > 127)) + (runs >> 4))))
    # A block costs what the running total gains across its coefficients.
    bounds = np.searchsorted(nonzero, np.arange(num_blocks + 1) * num_coeffs)
    return np.diff(spent[bounds]) + 1


def encoded_size_bytes(quantised: np.ndarray) -> int:
    """Exact encoded size in bytes of a 4-D quantised block array: the sum
    of :func:`encoded_block_sizes`."""
    return int(encoded_block_sizes(quantised).sum())


def encode_blocks(quantised: np.ndarray) -> bytes:
    """Encode a 4-D quantised block array into the byte format described above.

    Vectorised run-length pass: every non-zero coefficient becomes one chunk
    of ``[ZRL...] token level-bytes`` whose offset into the output buffer is
    computed with a cumulative sum, and the buffer starts zeroed so the EOB
    byte (``0x00``) of every block is already in place.
    """
    rows = _to_zigzag_rows(np.clip(quantised, -MAX_LEVEL, MAX_LEVEL))
    num_blocks, num_coeffs = rows.shape
    nonzero_flat, levels, run = _nonzero_runs(rows)
    if nonzero_flat.size == 0:
        # Every block is empty: the payload is one EOB per block.
        return bytes(num_blocks)

    levels = levels.astype(np.int64)
    block_index = nonzero_flat // num_coeffs
    zrl_count = run >> 4
    short_run = run & 0x0F
    size = _level_bytes(levels)
    token = (short_run << 4) | size

    # Chunk layout: zrl_count ZRL bytes, the token byte, then 1-2 level
    # bytes.  Chunks are laid out in (block, position) order with one EOB
    # byte between consecutive blocks' chunk groups.
    chunk_length = zrl_count + 1 + size
    chunk_start = np.empty(nonzero_flat.size, dtype=np.int64)
    chunk_start[0] = 0
    np.cumsum(chunk_length[:-1], out=chunk_start[1:])
    chunk_start += block_index  # one EOB per already-completed block

    total = int(chunk_length.sum()) + num_blocks
    output = np.zeros(total, dtype=np.uint8)  # zeros double as the EOB bytes
    # ZRL runs are at most (num_coeffs - 1) // 16 bytes long, so this loop is
    # bounded by the block size (3 iterations for 8x8 blocks), not the data.
    for offset in range(int(zrl_count.max(initial=0))):
        needs_zrl = zrl_count > offset
        output[chunk_start[needs_zrl] + offset] = ZRL
    token_position = chunk_start + zrl_count
    output[token_position] = token.astype(np.uint8)
    # Level bytes, big-endian two's complement (1 or 2 bytes).
    one_byte = size == 1
    output[token_position[one_byte] + 1] = (levels[one_byte] & 0xFF).astype(np.uint8)
    two_byte = ~one_byte
    output[token_position[two_byte] + 1] = \
        ((levels[two_byte] >> 8) & 0xFF).astype(np.uint8)
    output[token_position[two_byte] + 2] = (levels[two_byte] & 0xFF).astype(np.uint8)
    return output.tobytes()


def _token_positions(data: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Positions of every token byte of back-to-back entropy payloads.

    ``ends`` holds the exclusive end offset of each (non-empty) payload in
    ``data``, the last one being ``data.size``.  Treating *every* byte as a
    potential token start, the byte at ``p`` consumes ``1 + size`` bytes when
    it is a run/level token and ``1`` byte when it is ``EOB``/``ZRL``; a
    payload's token positions are the orbit of its first byte under
    ``p -> p + consumed(p)``.  Squaring the jump table marks every orbit in
    ``O(log n)`` vectorised passes: the scan is seeded at every payload start
    and after iteration ``j`` the marked set is exactly the first ``2^j``
    positions of each chain.  A jump that reaches or passes the end of *its
    own* payload goes to a sentinel instead, so a malformed payload can never
    walk into its neighbour.
    """
    length = data.size
    if length == 0:
        return np.empty(0, dtype=np.int64)
    # EOB and ZRL have a zero low nibble, so one expression covers them.
    jump = np.arange(1, length + 1, dtype=np.int64) + (data & 0x0F)
    starts = np.concatenate([[0], ends[:-1]])
    jump[jump >= np.repeat(ends, ends - starts)] = length
    jump = np.append(jump, length)  # position ``length`` is a fixed point
    scratch = np.empty(length + 1, dtype=np.int64)
    marked = np.zeros(length + 1, dtype=bool)
    marked[starts] = True
    # After iteration ``k`` the frontier holds steps ``0..2^k - 1`` of every
    # chain and ``jump`` advances ``2^k`` steps, so jumping the whole
    # frontier yields steps ``2^k..2^(k+1) - 1`` — all fresh (chains never
    # merge), except the sentinel.
    frontier = starts
    while True:
        advanced = jump[frontier]
        fresh = advanced[advanced < length]
        if fresh.size == 0:
            break
        marked[fresh] = True
        frontier = np.concatenate([frontier, fresh])
        # Every jump is a valid index; "clip" only spares numpy the
        # buffered copy its bounds-checking mode makes for `out`.
        np.take(jump, jump, out=scratch, mode="clip")
        jump, scratch = scratch, jump
    return np.flatnonzero(marked[:length])


def decode_block_payloads(data: np.ndarray, lengths: Sequence[int],
                          block_counts: Sequence[int],
                          block_size: int) -> np.ndarray:
    """Decode several back-to-back :func:`encode_blocks` payloads at once.

    One vectorised token scan over all payloads: token positions come from
    :func:`_token_positions`, then runs, levels and per-block coefficient
    positions are reconstructed with segmented cumulative sums.  Every
    payload must close exactly its own number of blocks with its final byte,
    so the blocks of all payloads are simply consecutive.

    Args:
        data: ``uint8`` array holding the payloads one after another.
        lengths: Byte length of each payload (they sum to ``data.size``).
        block_counts: Number of blocks each payload encodes.
        block_size: Block edge length.

    Returns:
        Quantised coefficient blocks of shape ``(sum(block_counts), b, b)``,
        in payload order.

    Raises:
        BitstreamError: If a payload is truncated or malformed (with
            several malformed payloads, which one gets reported is
            unspecified).
        CodecError: If ``lengths`` and ``block_counts`` do not describe
            ``data``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    block_counts = np.asarray(block_counts, dtype=np.int64)
    if lengths.shape != block_counts.shape or int(lengths.sum()) != data.size:
        raise CodecError(
            f"{lengths.size} payload lengths summing to {int(lengths.sum())} "
            f"do not describe {block_counts.size} block counts over "
            f"{data.size} bytes")
    num_blocks = int(block_counts.sum())
    num_coeffs = block_size * block_size
    forward, _ = zigzag_order(block_size)

    occupied = lengths > 0
    ends = np.cumsum(lengths)[occupied]
    positions = _token_positions(data, ends)
    tokens = data[positions]
    is_eob = tokens == EOB
    eob_count = np.cumsum(is_eob)

    # Framing: a payload's last token is the EOB at its final byte, and it
    # is the EOB that closes the payload's last block.  An empty payload
    # holds no token at all, so it must encode no block.
    last = np.searchsorted(positions, ends) - 1
    framed = block_counts == 0
    framed[occupied] = ((tokens[last] == EOB) & (positions[last] == ends - 1)
                        & (eob_count[last] == np.cumsum(block_counts)[occupied]))
    if not framed.all():
        broken = int(framed.argmin())
        end = int(lengths[:broken + 1].sum())
        start = end - int(lengths[broken])
        inside = positions[(positions >= start) & (positions < end)]
        raise _framing_error(data[start:end], inside - start,
                             int(block_counts[broken]))

    is_level = ~(is_eob | (tokens == ZRL))
    size = tokens & 0x0F
    bad = is_level & ((size == 0) | (size > 2))
    if bad.any():
        raise BitstreamError(
            f"invalid level size {int(size[bad.argmax()])} in entropy payload")

    # Coefficient index of each level token: segmented cumulative advance
    # (ZRL adds 16, a run/level token adds run + 1) reset at block starts.
    # EOB tokens have a zero run nibble, so `run + 1 - is_eob` folds all
    # three token kinds into one expression without fancy-index assignments
    # (ZRL's run nibble is 15, i.e. an advance of 16 as required).
    advance = (tokens >> 4).astype(np.int64) + 1 - is_eob
    total_advance = np.cumsum(advance)
    block_base = np.zeros(num_blocks, dtype=np.int64)
    if num_blocks > 1:
        block_base[1:] = total_advance[np.flatnonzero(is_eob)[:-1]]
    block_of = (eob_count - is_eob)[is_level]  # EOBs seen before each level
    coeff_index = total_advance[is_level] - block_base[block_of] - 1
    if coeff_index.size and int(coeff_index.max()) >= num_coeffs:
        raise BitstreamError("coefficient index out of range in entropy payload")

    level_positions = positions[is_level]
    # Sign-extended first level byte; two-byte levels fold in the low byte.
    levels = data[level_positions + 1].astype(np.int8).astype(np.int32)
    two = size[is_level] == 2
    levels[two] = levels[two] * 256 + data[level_positions[two] + 2]
    blocks = np.zeros((num_blocks, num_coeffs), dtype=np.int32)
    blocks[block_of, forward[coeff_index]] = levels  # zig-zag -> raster
    return blocks.reshape(num_blocks, block_size, block_size)


def _framing_error(data: np.ndarray, positions: np.ndarray,
                   num_blocks: int) -> BitstreamError:
    """Why one payload (token bytes at ``positions``) is badly framed.

    The scan stops at the ``num_blocks``-th EOB; everything after it is
    trailing garbage, and running out of payload first is a truncation —
    either a token whose level bytes run past the end or a clean end with
    blocks still open (two distinct messages).
    """
    tokens = data[positions]
    closing = np.flatnonzero(tokens == EOB)[num_blocks - 1:num_blocks]
    if num_blocks and closing.size == 0:
        if positions.size and positions[-1] + _consumed(tokens[-1]) > data.size:
            return BitstreamError("truncated entropy payload (missing level bytes)")
        return BitstreamError("truncated entropy payload (missing EOB)")
    decoded = int(positions[closing[0]]) + 1 if num_blocks else 0
    return BitstreamError(
        f"trailing {data.size - decoded} bytes after decoding "
        f"{num_blocks} blocks")


def _consumed(token: int) -> int:
    """Bytes consumed by one token byte (token itself plus its level bytes)."""
    if token == EOB or token == ZRL:
        return 1
    return 1 + (int(token) & 0x0F)
