"""Still-image (JPEG-like) codec used for I-frame payloads.

The paper decodes I-frames "in the same way still JPEG images are
decompressed" and resizes them to the NN input resolution before shipping
them to the cloud.  This module provides that still-image path: an 8x8
DCT + quantisation + run/level entropy coder for single grayscale planes
(colour frames are encoded plane by plane).

The format is self-describing: a small header records dimensions, quality
and channel count so :func:`decode_images` needs no side information.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import BitstreamError, CodecError
from .blocks import (DEFAULT_BLOCK_SIZE, block_grid, from_blocks, pad_plane,
                     to_blocks)
from .entropy import decode_block_payloads, encode_blocks, encoded_size_bytes
from .transform import (dct2_blocks, dequantise_blocks, idct2_blocks,
                        quantisation_matrix, quantise_blocks)

_MAGIC = b"SJPG"
_HEADER = struct.Struct(">4sHHBBB")  # magic, height, width, channels, quality, block
_PLANE_LENGTH = struct.Struct(">I")


def quantise_plane(plane: np.ndarray, matrix: np.ndarray,
                   block_size: int) -> np.ndarray:
    """Level-shift, block-transform and quantise one ``uint8`` plane."""
    blocks = to_blocks(pad_plane(plane.astype(np.float64) - 128.0, block_size),
                       block_size)
    return quantise_blocks(dct2_blocks(blocks), matrix)


def _image_planes(image: np.ndarray) -> List[np.ndarray]:
    if image.ndim == 2:
        return [image]
    if image.ndim == 3 and image.shape[2] == 3:
        return [image[:, :, channel] for channel in range(3)]
    raise CodecError(f"expected an (H, W) or (H, W, 3) image, got {image.shape}")


def pack_image(height: int, width: int, quality: int, block_size: int,
               quantised_planes: Sequence[np.ndarray]) -> bytes:
    """Container bytes of already quantised planes (header + payloads)."""
    if height == 0 or width == 0:
        raise CodecError("cannot encode an empty image")
    if height > 0xFFFF or width > 0xFFFF:
        raise CodecError("image dimensions exceed the 16-bit header fields")
    pieces = [_HEADER.pack(_MAGIC, height, width, len(quantised_planes),
                           int(quality), int(block_size))]
    for quantised in quantised_planes:
        payload = encode_blocks(quantised)
        pieces.append(_PLANE_LENGTH.pack(len(payload)))
        pieces.append(payload)
    return b"".join(pieces)


def packed_image_size(quantised_planes: Sequence[np.ndarray]) -> int:
    """Exact ``len(pack_image(...))`` without materialising the bytes."""
    return _HEADER.size + sum(_PLANE_LENGTH.size + encoded_size_bytes(quantised)
                              for quantised in quantised_planes)


def _parse_image(data: bytes) -> Tuple[Tuple[int, int, int, int, int],
                                       List[memoryview]]:
    """Validate one still-image container without decoding anything.

    Returns its format ``(height, width, channels, quality, block_size)``
    and the entropy payload of each plane.
    """
    if len(data) < _HEADER.size:
        raise BitstreamError("image payload too short for header")
    magic, height, width, channels, quality, block_size = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise BitstreamError(f"bad still-image magic {magic!r}")
    if height == 0 or width == 0:
        raise BitstreamError(
            f"still image declares an empty {height}x{width} picture")
    if channels not in (1, 3):
        raise BitstreamError(
            f"still image declares channels {channels}, expected 1 or 3")
    if not 1 <= quality <= 100:
        raise BitstreamError(
            f"still image declares quality {quality}, outside 1-100")
    if block_size == 0:
        raise BitstreamError("still image declares block_size 0")
    view = memoryview(data)
    offset = _HEADER.size
    planes = []
    for _ in range(channels):
        if offset + _PLANE_LENGTH.size > len(data):
            raise BitstreamError("truncated still-image plane header")
        (plane_length,) = _PLANE_LENGTH.unpack_from(data, offset)
        offset += _PLANE_LENGTH.size
        if offset + plane_length > len(data):
            raise BitstreamError("truncated still-image plane payload")
        planes.append(view[offset:offset + plane_length])
        offset += plane_length
    if offset != len(data):
        raise BitstreamError("trailing bytes after still-image payload")
    return (height, width, channels, quality, block_size), planes


def _decode_batch(payloads: Sequence[bytes]) -> List[np.ndarray]:
    """Decode images, all planes of one format in one pass per stage.

    Every container is validated first, in order.  The entropy scan of
    several payloads reports *some* malformed payload, not the first, so
    only a batch of one is guaranteed to raise its image's own error.
    """
    parsed = [_parse_image(payload) for payload in payloads]
    members: Dict[Tuple[int, ...], List[int]] = {}
    for position, (image_format, _) in enumerate(parsed):
        members.setdefault(image_format, []).append(position)
    images: List[np.ndarray] = [None] * len(parsed)
    for image_format, positions in members.items():
        height, width, channels, quality, block_size = image_format
        planes = [plane for position in positions for plane in parsed[position][1]]
        blocks_y, blocks_x = block_grid(height, width, block_size)
        quantised = decode_block_payloads(
            np.frombuffer(b"".join(planes), dtype=np.uint8),
            [len(plane) for plane in planes],
            [blocks_y * blocks_x] * len(planes), block_size)
        matrix = quantisation_matrix(quality, block_size)
        reconstructed = idct2_blocks(dequantise_blocks(
            quantised.reshape(-1, blocks_x, block_size, block_size),
            matrix)) + 128.0
        stack = from_blocks(reconstructed).reshape(
            len(planes), blocks_y * block_size, -1)[:, :height, :width]
        stack = np.clip(stack, 0, 255).astype(np.uint8)
        if channels == 3:
            stack = np.ascontiguousarray(
                stack.reshape(-1, 3, height, width).transpose(0, 2, 3, 1))
        for position, image in zip(positions, stack):
            images[position] = image
    return images


def decode_images(payloads: Sequence[bytes]) -> List[np.ndarray]:
    """Decode several :func:`pack_image` outputs into ``uint8`` arrays.

    Images of equal format (the I-frames of one clip) share one entropy
    scan, one dequantise + inverse transform and one clip/cast; formats may
    be mixed freely.  A batch that fails any check is decoded again one
    image at a time, so the first malformed image in order raises exactly
    the error a batch of that image alone raises.
    """
    if len(payloads) > 1:
        try:
            return _decode_batch(payloads)
        except CodecError:
            pass  # decoded again below, where the first malformed image raises
    return [_decode_batch([payload])[0] for payload in payloads]


def estimate_encoded_size(image: np.ndarray, quality: int = 75,
                          block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Exact encoded size of an image without materialising the bytes."""
    matrix = quantisation_matrix(quality, block_size)
    return packed_image_size([quantise_plane(plane, matrix, block_size)
                              for plane in _image_planes(np.asarray(image))])
