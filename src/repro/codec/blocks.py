"""Macroblock partitioning helpers.

The codec substrate (motion estimation, DCT transform, scenecut analysis)
operates on square pixel blocks.  These helpers convert between a 2-D image
plane and a 4-D ``(blocks_y, blocks_x, block, block)`` view, padding the
plane by edge replication when its dimensions are not block-aligned —
the same convention H.264/JPEG use for partial macroblocks.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..config import whole_number
from ..errors import CodecError

#: Default macroblock size used throughout the codec.
DEFAULT_BLOCK_SIZE = 8


def padded_shape(height: int, width: int, block_size: int = DEFAULT_BLOCK_SIZE
                 ) -> Tuple[int, int]:
    """Return the block-aligned ``(height, width)`` for a plane."""
    if not (type(height) is type(width) is type(block_size) is int
            and min(height, width) >= 0 and block_size > 0):
        for name, value, least in (("height", height, 0), ("width", width, 0),
                                   ("block_size", block_size, 1)):
            whole_number(value, name, CodecError, least=least)
    pad_h = (block_size - height % block_size) % block_size
    pad_w = (block_size - width % block_size) % block_size
    return height + pad_h, width + pad_w


def pad_plane(plane: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """Pad a 2-D plane to a multiple of ``block_size`` by edge replication.

    Args:
        plane: 2-D array.
        block_size: Target alignment.

    Returns:
        The padded plane (a copy only when padding is required).
    """
    if plane.ndim != 2:
        raise CodecError(f"pad_plane expects a 2-D plane, got shape {plane.shape}")
    height, width = plane.shape
    target_h, target_w = padded_shape(height, width, block_size)
    if (target_h, target_w) == (height, width):
        return plane
    # Hand-rolled edge replication: np.pad's generic machinery costs more
    # than the copy itself on this per-frame hot path.
    padded = np.empty((target_h, target_w), dtype=plane.dtype)
    padded[:height, :width] = plane
    if target_h > height:
        padded[height:, :width] = plane[-1]
    if target_w > width:
        padded[:, width:] = padded[:, width - 1:width]
    return padded


def crop_plane(plane: np.ndarray, height: int, width: int) -> np.ndarray:
    """Crop a padded plane back to its original ``(height, width)``."""
    if plane.shape[0] < height or plane.shape[1] < width:
        raise CodecError(
            f"cannot crop plane of shape {plane.shape} to {(height, width)}")
    return plane[:height, :width]


def to_blocks(plane: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """Reshape a block-aligned plane into ``(by, bx, block, block)`` blocks.

    The returned array is a view when possible; callers that mutate it should
    copy first.

    Args:
        plane: 2-D array whose dimensions are multiples of ``block_size``.
        block_size: Block edge length.

    Returns:
        4-D array of blocks.
    """
    height, width = plane.shape
    if type(block_size) is not int or block_size < 1:
        whole_number(block_size, "block_size", CodecError, least=1)
    if height % block_size or width % block_size:
        raise CodecError(
            f"plane shape {plane.shape} is not aligned to block size {block_size}")
    blocks_y = height // block_size
    blocks_x = width // block_size
    return (plane.reshape(blocks_y, block_size, blocks_x, block_size)
            .transpose(0, 2, 1, 3))


def from_blocks(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_blocks`: reassemble blocks into a 2-D plane."""
    if blocks.ndim != 4 or blocks.shape[2] != blocks.shape[3]:
        raise CodecError(
            f"expected (by, bx, b, b) block array, got shape {blocks.shape}")
    blocks_y, blocks_x, block_size, _ = blocks.shape
    return (blocks.transpose(0, 2, 1, 3)
            .reshape(blocks_y * block_size, blocks_x * block_size))


def block_grid(height: int, width: int, block_size: int = DEFAULT_BLOCK_SIZE
               ) -> Tuple[int, int]:
    """Number of blocks ``(blocks_y, blocks_x)`` covering a padded plane."""
    target_h, target_w = padded_shape(height, width, block_size)
    return target_h // block_size, target_w // block_size
