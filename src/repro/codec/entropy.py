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

Because the format is byte aligned, the encoded size of a frame can be
computed exactly without materialising the payload
(:func:`encoded_size_bytes`), which is what the video encoder uses on its
fast path; :func:`encode_blocks` / :func:`decode_blocks` provide the real
round-trip used by the still-image codec and the tests.

Both directions are fully vectorised: encoding is a numpy run-length pass
over the zig-zag rows (``flatnonzero``/``diff`` -> token/level byte arrays
-> ``tobytes``), decoding is a token scan over a ``frombuffer`` view whose
token positions are found by pointer doubling.  The scan takes any number
of back-to-back payloads (:func:`decode_block_payloads` — the video decoder
hands it the residuals of a whole run of P-frames); :func:`decode_blocks` is
its one-payload form.  The original per-block Python implementations are
retained as :func:`encode_blocks_reference` /
:func:`decode_blocks_reference` — they pin the byte format, and the
equivalence property tests assert the vectorised pair matches them byte for
byte.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

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
    if block_size <= 0:
        raise CodecError(f"block_size must be positive, got {block_size}")
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
    if quantised.ndim != 4 or quantised.shape[2] != quantised.shape[3]:
        raise CodecError(f"expected (by, bx, b, b) blocks, got {quantised.shape}")
    block_size = quantised.shape[2]
    forward, _ = zigzag_order(block_size)
    rows = quantised.reshape(-1, block_size * block_size)
    return rows[:, forward]


def _level_bytes(levels: np.ndarray) -> np.ndarray:
    """Number of bytes (1 or 2) needed to store each level.

    Levels are stored as signed big-endian integers, so the single-byte
    range is the asymmetric two's-complement interval [-128, 127] — using
    ``abs(level) < 128`` here would overestimate a level of exactly -128 by
    one byte and disagree with :func:`encode_blocks`.
    """
    return np.where((levels >= -128) & (levels <= 127), 1, 2)


def encoded_size_bytes(quantised: np.ndarray) -> int:
    """Exact encoded size in bytes of a 4-D quantised block array.

    This is fully vectorised and matches :func:`encode_blocks` byte for byte.
    """
    rows = _to_zigzag_rows(quantised)
    num_blocks, num_coeffs = rows.shape
    nonzero = rows != 0
    # Bytes for (token + level) of every non-zero coefficient.
    level_cost = np.where(nonzero, 1 + _level_bytes(rows), 0).sum()
    # ZRL tokens: one byte per full run of 16 zeros preceding a non-zero.
    positions = np.where(nonzero, np.arange(num_coeffs)[None, :], -1)
    previous = np.maximum.accumulate(positions, axis=1)
    shifted = np.concatenate(
        [np.full((num_blocks, 1), -1, dtype=previous.dtype), previous[:, :-1]], axis=1)
    runs = np.where(nonzero, np.arange(num_coeffs)[None, :] - shifted - 1, 0)
    zrl_cost = (runs // 16).sum()
    # One EOB byte per block.
    return int(level_cost + zrl_cost + num_blocks)


def encode_blocks(quantised: np.ndarray) -> bytes:
    """Encode a 4-D quantised block array into the byte format described above.

    Vectorised run-length pass: every non-zero coefficient becomes one chunk
    of ``[ZRL...] token level-bytes`` whose offset into the output buffer is
    computed with a cumulative sum, and the buffer starts zeroed so the EOB
    byte (``0x00``) of every block is already in place.  Byte-for-byte
    identical to :func:`encode_blocks_reference`.
    """
    rows = _to_zigzag_rows(np.clip(quantised, -MAX_LEVEL, MAX_LEVEL))
    num_blocks, num_coeffs = rows.shape
    flat = rows.ravel()
    nonzero_flat = np.flatnonzero(flat)
    if nonzero_flat.size == 0:
        # Every block is empty: the payload is one EOB per block.
        return bytes(num_blocks)

    levels = flat[nonzero_flat].astype(np.int64)
    block_index = nonzero_flat // num_coeffs
    position = nonzero_flat - block_index * num_coeffs
    # Zig-zag position of the previous non-zero coefficient in the same
    # block (-1 at a block start), from which the zero-run length follows.
    previous = np.empty_like(position)
    previous[0] = -1
    previous[1:] = position[:-1]
    first_in_block = np.empty(nonzero_flat.size, dtype=bool)
    first_in_block[0] = True
    np.not_equal(block_index[1:], block_index[:-1], out=first_in_block[1:])
    previous[first_in_block] = -1
    run = position - previous - 1

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
        BitstreamError: If a payload is truncated or malformed.  With one
            payload this is the error :func:`decode_blocks` documents; with
            several, which malformed payload gets reported is unspecified.
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
    blocks still open (the two reference error messages).
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


def decode_blocks(payload: bytes, blocks_y: int, blocks_x: int,
                  block_size: int) -> np.ndarray:
    """Decode :func:`encode_blocks` output back into a 4-D block array.

    The one-payload form of :func:`decode_block_payloads`.  Byte-for-byte
    equivalent to :func:`decode_blocks_reference` on well-formed payloads
    and raises :class:`~repro.errors.BitstreamError` on the same malformed
    ones.

    Args:
        payload: Encoded bytes.
        blocks_y: Number of block rows.
        blocks_x: Number of block columns.
        block_size: Block edge length.

    Returns:
        Quantised coefficient blocks of shape ``(blocks_y, blocks_x, b, b)``.

    Raises:
        BitstreamError: If the payload is truncated or malformed.
    """
    blocks = decode_block_payloads(np.frombuffer(payload, dtype=np.uint8),
                                   [len(payload)], [blocks_y * blocks_x],
                                   block_size)
    return blocks.reshape(blocks_y, blocks_x, block_size, block_size)


def _consumed(token: int) -> int:
    """Bytes consumed by one token byte (token itself plus its level bytes)."""
    if token == EOB or token == ZRL:
        return 1
    return 1 + (int(token) & 0x0F)


def encode_blocks_reference(quantised: np.ndarray) -> bytes:
    """Reference per-block Python encoder (pins the byte format).

    This is the original implementation :func:`encode_blocks` replaced; the
    equivalence property tests assert both produce identical payloads, and
    the micro-benchmarks use it as the speedup baseline.
    """
    rows = _to_zigzag_rows(np.clip(quantised, -MAX_LEVEL, MAX_LEVEL))
    output = bytearray()
    for row in rows:
        nonzero_positions = np.nonzero(row)[0]
        previous = -1
        for position in nonzero_positions:
            run = int(position - previous - 1)
            previous = int(position)
            while run >= 16:
                output.append(ZRL)
                run -= 16
            level = int(row[position])
            size = 1 if -128 <= level <= 127 else 2
            output.append((run << 4) | size)
            output.extend(int(level).to_bytes(size, "big", signed=True))
        output.append(EOB)
    return bytes(output)


def decode_blocks_reference(payload: bytes, blocks_y: int, blocks_x: int,
                            block_size: int) -> np.ndarray:
    """Reference per-byte Python decoder (pins the byte format).

    See :func:`encode_blocks_reference`; kept for the equivalence tests and
    as the micro-benchmark baseline.
    """
    num_blocks = blocks_y * blocks_x
    num_coeffs = block_size * block_size
    _, inverse = zigzag_order(block_size)
    rows = np.zeros((num_blocks, num_coeffs), dtype=np.int32)
    offset = 0
    length = len(payload)
    for block_index in range(num_blocks):
        position = 0
        while True:
            if offset >= length:
                raise BitstreamError("truncated entropy payload (missing EOB)")
            token = payload[offset]
            offset += 1
            if token == EOB:
                break
            if token == ZRL:
                position += 16
                continue
            run = token >> 4
            size = token & 0x0F
            if size not in (1, 2):
                raise BitstreamError(f"invalid level size {size} in entropy payload")
            if offset + size > length:
                raise BitstreamError("truncated entropy payload (missing level bytes)")
            level = int.from_bytes(payload[offset:offset + size], "big", signed=True)
            offset += size
            position += run
            if position >= num_coeffs:
                raise BitstreamError("coefficient index out of range in entropy payload")
            rows[block_index, position] = level
            position += 1
    if offset != length:
        raise BitstreamError(
            f"trailing {length - offset} bytes after decoding {num_blocks} blocks")
    raster = rows[:, inverse]
    return raster.reshape(blocks_y, blocks_x, block_size, block_size)


def coefficient_statistics(quantised: np.ndarray) -> dict:
    """Summary statistics of a quantised block array (for tests/diagnostics)."""
    rows = _to_zigzag_rows(quantised)
    nonzero = rows != 0
    return {
        "num_blocks": int(rows.shape[0]),
        "nonzero_coefficients": int(nonzero.sum()),
        "nonzero_fraction": float(nonzero.mean()) if rows.size else 0.0,
        "max_abs_level": int(np.abs(rows).max()) if rows.size else 0,
        "encoded_size_bytes": encoded_size_bytes(quantised),
    }


def split_block_payloads(payload: bytes, num_blocks: int) -> List[bytes]:
    """Split an encoded payload into one byte string per block (diagnostics).

    Raises:
        BitstreamError: If the payload is truncated or a token carries an
            invalid level size — an unvalidated size nibble (3-15) would
            otherwise silently desynchronise the scan.
    """
    pieces: List[bytes] = []
    offset = 0
    length = len(payload)
    for _ in range(num_blocks):
        start = offset
        while True:
            if offset >= length:
                raise BitstreamError("truncated entropy payload while splitting")
            token = payload[offset]
            offset += 1
            if token == EOB:
                break
            if token == ZRL:
                continue
            size = token & 0x0F
            if size not in (1, 2):
                raise BitstreamError(f"invalid level size {size} in entropy payload")
            if offset + size > length:
                raise BitstreamError("truncated entropy payload (missing level bytes)")
            offset += size
        pieces.append(payload[start:offset])
    return pieces
