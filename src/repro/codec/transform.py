"""Block transform and quantisation.

The codec uses the classic JPEG/MPEG toolchain: an 8x8 type-II DCT followed
by quantisation with a perceptual quantisation matrix scaled by a quality
factor.  All operations are vectorised over a 4-D block array
``(blocks_y, blocks_x, block, block)`` so that whole frames are transformed
with a couple of einsums.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from ..config import whole_number
from ..errors import CodecError

#: The standard JPEG luminance quantisation matrix (ITU-T T.81 Annex K).
JPEG_LUMA_QUANT = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)


@lru_cache(maxsize=8)
def dct_matrix(size: int) -> np.ndarray:
    """Return the orthonormal type-II DCT matrix of the given size.

    ``dct_matrix(n) @ x`` computes the 1-D DCT of a length-``n`` signal; the
    matrix is orthonormal so its transpose is the inverse transform.
    """
    whole_number(size, "DCT size", CodecError, least=1)
    k = np.arange(size).reshape(-1, 1)
    n = np.arange(size).reshape(1, -1)
    matrix = np.cos(np.pi * (2 * n + 1) * k / (2 * size))
    matrix *= np.sqrt(2.0 / size)
    matrix[0, :] *= np.sqrt(0.5)
    return matrix


def dct2_blocks(blocks: np.ndarray) -> np.ndarray:
    """Apply the 2-D DCT to every block of a 4-D block array.

    Implemented as broadcast matrix products (``M @ blocks @ M.T``), which
    performs the same two contractions as the original optimised einsum —
    bit-identical results — without einsum's per-call parsing overhead.
    """
    if blocks.ndim != 4 or blocks.shape[2] != blocks.shape[3]:
        raise CodecError(f"expected (by, bx, b, b) blocks, got {blocks.shape}")
    matrix = dct_matrix(blocks.shape[2])
    return matrix @ blocks @ matrix.T


def idct2_blocks(coefficients: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT of every block of a 4-D coefficient array."""
    if coefficients.ndim != 4 or coefficients.shape[2] != coefficients.shape[3]:
        raise CodecError(f"expected (by, bx, b, b) blocks, got {coefficients.shape}")
    matrix = dct_matrix(coefficients.shape[2])
    return matrix.T @ coefficients @ matrix


def quality_to_scale(quality: int) -> float:
    """Map a JPEG-style quality factor (1-100) to a quant-matrix scale.

    Uses the libjpeg convention: quality 50 keeps the reference matrix,
    higher qualities shrink it (finer quantisation), lower qualities grow it.
    """
    quality = whole_number(quality, "quality", CodecError, least=1, most=100)
    if quality < 50:
        return 5000.0 / quality / 100.0
    return (200.0 - 2.0 * quality) / 100.0


def quantisation_matrix(quality: int, block_size: int = 8,
                        base: np.ndarray = JPEG_LUMA_QUANT) -> np.ndarray:
    """Build the quantisation matrix for ``quality`` and ``block_size``.

    Block sizes other than 8 reuse the JPEG matrix by bilinear resampling of
    its entries, which preserves the low-frequency-fine / high-frequency-
    coarse structure.
    """
    scale = quality_to_scale(quality)
    whole_number(block_size, "block_size", CodecError, least=1)
    matrix = base
    if block_size != base.shape[0]:
        source = np.linspace(0, base.shape[0] - 1, block_size)
        xi = np.clip(source.astype(int), 0, base.shape[0] - 2)
        frac = source - xi
        rows = (base[xi, :] * (1 - frac)[:, None] + base[xi + 1, :] * frac[:, None])
        cols_idx = xi
        matrix = (rows[:, cols_idx] * (1 - frac)[None, :]
                  + rows[:, np.clip(cols_idx + 1, 0, base.shape[0] - 1)] * frac[None, :])
    scaled = np.floor(matrix * scale + 0.5)
    return np.clip(scaled, 1, 255)


def quantise_blocks(coefficients: np.ndarray, quant_matrix: np.ndarray) -> np.ndarray:
    """Quantise DCT coefficients to integers (round-to-nearest)."""
    return np.round(coefficients / quant_matrix).astype(np.int32)


def dequantise_blocks(quantised: np.ndarray, quant_matrix: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Reconstruct approximate DCT coefficients from quantised integers.

    ``out``, a ``float64`` array of the result's shape, receives them
    without a temporary.  The integers widen to ``float64`` exactly.
    """
    return np.multiply(quantised, quant_matrix, out=out)
