"""The per-block entropy coders ``codec/entropy.py`` carried before it was
vectorised, kept as the oracle that pins the byte format.

``encode_blocks`` / ``decode_block_payloads`` must be byte-for-byte (and
error-for-error) interchangeable with these two functions;
``test_entropy_equivalence.py``, ``test_entropy_multi_payload.py`` and
``test_decode_run_oracle.py`` hold them to it.  :func:`decode_blocks` is
the batched decoder called on one payload, the way the suite reads it.
"""

import numpy as np

from repro.codec.entropy import (EOB, MAX_LEVEL, ZRL, _to_zigzag_rows,
                                 decode_block_payloads, zigzag_order)
from repro.errors import BitstreamError


def decode_blocks(payload: bytes, blocks_y: int, blocks_x: int,
                  block_size: int) -> np.ndarray:
    """:func:`decode_block_payloads` on one payload, as a 4-D block array."""
    blocks = decode_block_payloads(np.frombuffer(payload, dtype=np.uint8),
                                   [len(payload)], [blocks_y * blocks_x],
                                   block_size)
    return blocks.reshape(blocks_y, blocks_x, block_size, block_size)


def encode_blocks_reference(quantised: np.ndarray) -> bytes:
    """Per-block Python encoder: one token loop over every zig-zag row."""
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
    """Per-byte Python decoder of :func:`encode_blocks_reference` output."""
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
