"""Still-image (JPEG-like) codec used for I-frame payloads.

The paper decodes I-frames "in the same way still JPEG images are
decompressed" and resizes them to the NN input resolution before shipping
them to the cloud.  This module provides that still-image path: an 8x8
DCT + quantisation + run/level entropy coder for single grayscale planes
(colour frames are encoded plane by plane).

The format is self-describing: a small header records dimensions, quality
and channel count so :func:`decode_image` needs no side information.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import BitstreamError, CodecError
from .blocks import DEFAULT_BLOCK_SIZE, crop_plane, pad_plane, to_blocks, from_blocks
from .entropy import decode_blocks, encode_blocks, encoded_size_bytes
from .transform import (dct2_blocks, dequantise_blocks, idct2_blocks,
                        quantisation_matrix, quantise_blocks)

_MAGIC = b"SJPG"
_HEADER = struct.Struct(">4sHHBBB")  # magic, height, width, channels, quality, block


@dataclass(frozen=True)
class ImageCodecStats:
    """Statistics of one still-image encode.

    Attributes:
        encoded_bytes: Size of the encoded image (header included).
        raw_bytes: Size of the raw pixel data.
    """

    encoded_bytes: int
    raw_bytes: int

    @property
    def compression_ratio(self) -> float:
        """Raw size divided by encoded size."""
        if self.encoded_bytes == 0:
            return float("inf")
        return self.raw_bytes / self.encoded_bytes


def quantise_plane(plane: np.ndarray, matrix: np.ndarray,
                   block_size: int) -> np.ndarray:
    """Level-shift, block-transform and quantise one ``uint8`` plane."""
    blocks = to_blocks(pad_plane(plane.astype(np.float64) - 128.0, block_size),
                       block_size)
    return quantise_blocks(dct2_blocks(blocks), matrix)


def _decode_plane(payload: bytes, height: int, width: int, quality: int,
                  block_size: int) -> np.ndarray:
    padded_h = -(-height // block_size) * block_size
    padded_w = -(-width // block_size) * block_size
    blocks_y = padded_h // block_size
    blocks_x = padded_w // block_size
    quantised = decode_blocks(payload, blocks_y, blocks_x, block_size)
    matrix = quantisation_matrix(quality, block_size)
    reconstructed = idct2_blocks(dequantise_blocks(quantised, matrix)) + 128.0
    plane = crop_plane(from_blocks(reconstructed), height, width)
    return np.clip(plane, 0, 255).astype(np.uint8)


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
        pieces.append(struct.pack(">I", len(payload)))
        pieces.append(payload)
    return b"".join(pieces)


def packed_image_size(quantised_planes: Sequence[np.ndarray]) -> int:
    """Exact ``len(pack_image(...))`` without materialising the bytes."""
    return _HEADER.size + sum(4 + encoded_size_bytes(quantised)
                              for quantised in quantised_planes)


def encode_image(image: np.ndarray, quality: int = 75,
                 block_size: int = DEFAULT_BLOCK_SIZE) -> bytes:
    """Encode a grayscale or RGB ``uint8`` image.

    Args:
        image: Array of shape ``(H, W)`` or ``(H, W, 3)``.
        quality: JPEG-style quality factor in ``[1, 100]``.
        block_size: Transform block size.

    Returns:
        The encoded byte string (header + per-plane payloads).
    """
    image = np.asarray(image)
    matrix = quantisation_matrix(quality, block_size)
    return pack_image(image.shape[0], image.shape[1], quality, block_size,
                      [quantise_plane(plane, matrix, block_size)
                       for plane in _image_planes(image)])


def decode_image(data: bytes) -> np.ndarray:
    """Decode :func:`encode_image` output back into a ``uint8`` array."""
    if len(data) < _HEADER.size:
        raise BitstreamError("image payload too short for header")
    magic, height, width, channels, quality, block_size = _HEADER.unpack(
        data[:_HEADER.size])
    if magic != _MAGIC:
        raise BitstreamError(f"bad still-image magic {magic!r}")
    offset = _HEADER.size
    planes = []
    for _ in range(channels):
        if offset + 4 > len(data):
            raise BitstreamError("truncated still-image plane header")
        (plane_length,) = struct.unpack(">I", data[offset:offset + 4])
        offset += 4
        if offset + plane_length > len(data):
            raise BitstreamError("truncated still-image plane payload")
        planes.append(_decode_plane(data[offset:offset + plane_length], height, width,
                                    quality, block_size))
        offset += plane_length
    if offset != len(data):
        raise BitstreamError("trailing bytes after still-image payload")
    if channels == 1:
        return planes[0]
    return np.stack(planes, axis=2)


def estimate_encoded_size(image: np.ndarray, quality: int = 75,
                          block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Exact encoded size of an image without materialising the bytes."""
    matrix = quantisation_matrix(quality, block_size)
    return packed_image_size([quantise_plane(plane, matrix, block_size)
                              for plane in _image_planes(np.asarray(image))])


def roundtrip_psnr(image: np.ndarray, quality: int = 75) -> Tuple[float, ImageCodecStats]:
    """Encode + decode an image and report PSNR and size statistics."""
    encoded = encode_image(image, quality)
    decoded = decode_image(encoded)
    original = np.asarray(image, dtype=np.float64)
    reconstructed = decoded.astype(np.float64)
    mse = float(np.mean((original - reconstructed) ** 2))
    psnr = float("inf") if mse == 0 else 10.0 * np.log10(255.0 ** 2 / mse)
    stats = ImageCodecStats(encoded_bytes=len(encoded),
                            raw_bytes=int(original.size))
    return psnr, stats
