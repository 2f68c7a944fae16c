"""Basic image operations shared by the vision baselines and the NN substrate.

Everything operates on 2-D float64 luma planes (or passes colour frames
through :func:`to_grayscale` first) and is implemented with plain numpy so
the library has no OpenCV dependency.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """Convert an image to a float64 luma plane (BT.601 weights)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        return image
    if image.ndim == 3 and image.shape[2] == 3:
        return image @ np.array([0.299, 0.587, 0.114])
    raise ConfigurationError(f"expected (H, W) or (H, W, 3) image, got {image.shape}")


@lru_cache(maxsize=32)
def _resize_plan(src_h: int, src_w: int, height: int, width: int
                 ) -> Tuple[np.ndarray, ...]:
    """Bilinear sampling plan from ``(src_h, src_w)`` to ``(height, width)``.

    Returns ``(rows, row_low, row_high, row_frac, col_low, col_high,
    col_frac)``: every target column blends source columns ``col_low`` and
    ``col_high`` with weight ``col_frac`` on the higher one; ``rows`` are
    the source rows any target row needs, and a target row blends entries
    ``row_low`` / ``row_high`` *of that selection* likewise.  Shared between
    calls, hence read-only.
    """
    row_positions = np.linspace(0, src_h - 1, height)
    col_positions = np.linspace(0, src_w - 1, width)
    row_low = np.floor(row_positions).astype(int)
    col_low = np.floor(col_positions).astype(int)
    row_high = np.minimum(row_low + 1, src_h - 1)
    col_high = np.minimum(col_low + 1, src_w - 1)
    rows = np.union1d(row_low, row_high)
    plan = (rows, np.searchsorted(rows, row_low), np.searchsorted(rows, row_high),
            row_positions - row_low, col_low, col_high, col_positions - col_low)
    for array in plan:
        array.flags.writeable = False
    return plan


def resize_stack(images: np.ndarray, size: Tuple[int, int]) -> np.ndarray:
    """Resize equally shaped images, stacked on a leading axis, in one pass.

    Args:
        images: ``(N, H, W)`` or ``(N, H, W, C)`` array.
        size: Target ``(width, height)``.

    Returns:
        The resized stack with the same dtype as the input (rounded for
        integer inputs); image ``i`` is exactly ``resize(images[i], size)``.
    """
    width, height = size
    if width <= 0 or height <= 0:
        raise ConfigurationError(f"target size must be positive, got {size}")
    source = np.asarray(images)
    if source.ndim not in (3, 4):
        raise ConfigurationError(
            f"expected (H, W) or (H, W, C) images, got {source.shape[1:]}")
    src_h, src_w = source.shape[1:3]
    if src_h == 0 or src_w == 0:
        raise ConfigurationError(f"cannot resize an empty {src_h}x{src_w} image")
    if (src_w, src_h) == (width, height):
        return source.copy()
    rows, row_low, row_high, row_frac, col_low, col_high, col_frac = \
        _resize_plan(src_h, src_w, height, width)
    # Fractions line up with the column axis (and the row axis one before
    # it) whether or not a channel axis follows.
    col_frac = col_frac.reshape((-1,) + (1,) * (source.ndim - 3))
    row_frac = row_frac.reshape((-1, 1) + (1,) * (source.ndim - 3))
    # Per pixel: blend the two columns in each of its two source rows, then
    # blend the rows.  The column blend is taken once per *source* row that
    # is needed at all and gathered into target rows afterwards — the same
    # products and sums for every pixel, on min(H, 2h) rows instead of 2h.
    working = source.astype(np.float64, copy=False)
    if rows.size < src_h:
        working = working[:, rows]
    blended = working[:, :, col_low]
    blended *= 1 - col_frac
    high = working[:, :, col_high]
    high *= col_frac
    blended += high
    resized = blended[:, row_low]
    resized *= 1 - row_frac
    high = blended[:, row_high]
    high *= row_frac
    resized += high
    if np.issubdtype(source.dtype, np.integer):
        return np.clip(np.round(resized), 0, 255).astype(source.dtype)
    return resized


def resize(image: np.ndarray, size: Tuple[int, int]) -> np.ndarray:
    """Resize an image to ``(width, height)`` with bilinear interpolation.

    The one-image form of :func:`resize_stack`.

    Args:
        image: 2-D or 3-D array.
        size: Target ``(width, height)``.

    Returns:
        The resized array with the same dtype as the input (rounded for
        integer inputs).
    """
    return resize_stack(np.asarray(image)[None], size)[0]


@lru_cache(maxsize=32)
def gaussian_kernel_1d(sigma: float, radius: int) -> np.ndarray:
    """Normalised 1-D Gaussian kernel."""
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs ** 2) / (2.0 * sigma ** 2))
    return kernel / kernel.sum()


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a 2-D plane (reflect padding).

    Uses :func:`scipy.ndimage.gaussian_filter` when SciPy is available and
    falls back to a pure-numpy separable convolution otherwise; both paths
    use the same truncation radius so results agree to numerical precision.
    """
    plane = np.asarray(image, dtype=np.float64)
    if plane.ndim != 2:
        raise ConfigurationError("gaussian_blur expects a 2-D plane")
    if sigma <= 0:
        return plane.copy()
    try:
        from scipy import ndimage
    except ImportError:  # pragma: no cover - SciPy is an optional accelerator.
        ndimage = None
    if ndimage is not None:
        return ndimage.gaussian_filter(plane, sigma=float(sigma), mode="reflect",
                                       truncate=3.0)
    radius = max(int(round(3.0 * sigma)), 1)
    kernel = gaussian_kernel_1d(float(sigma), radius)
    padded = np.pad(plane, ((0, 0), (radius, radius)), mode="reflect")
    blurred = np.apply_along_axis(
        lambda row: np.convolve(row, kernel, mode="valid"), 1, padded)
    padded = np.pad(blurred, ((radius, radius), (0, 0)), mode="reflect")
    return np.apply_along_axis(
        lambda col: np.convolve(col, kernel, mode="valid"), 0, padded)


def gradients(image: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients ``(dy, dx)`` of a 2-D plane."""
    plane = np.asarray(image, dtype=np.float64)
    if plane.ndim != 2:
        raise ConfigurationError("gradients expects a 2-D plane")
    dy = np.zeros_like(plane)
    dx = np.zeros_like(plane)
    dy[1:-1, :] = (plane[2:, :] - plane[:-2, :]) / 2.0
    dx[:, 1:-1] = (plane[:, 2:] - plane[:, :-2]) / 2.0
    return dy, dx


def gradient_magnitude_orientation(image: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gradient magnitude and orientation (radians in ``[0, 2*pi)``)."""
    dy, dx = gradients(image)
    magnitude = np.hypot(dx, dy)
    orientation = np.mod(np.arctan2(dy, dx), 2.0 * np.pi)
    return magnitude, orientation


def downsample(image: np.ndarray, factor: int = 2) -> np.ndarray:
    """Downsample a 2-D plane by an integer factor (block averaging)."""
    if factor < 1:
        raise ConfigurationError("factor must be >= 1")
    plane = np.asarray(image, dtype=np.float64)
    height = (plane.shape[0] // factor) * factor
    width = (plane.shape[1] // factor) * factor
    if height == 0 or width == 0:
        raise ConfigurationError("image too small for the requested downsampling")
    trimmed = plane[:height, :width]
    return trimmed.reshape(height // factor, factor, width // factor, factor).mean(
        axis=(1, 3))


def normalize_plane(image: np.ndarray) -> np.ndarray:
    """Scale a plane to zero mean and unit variance (used by NN preprocessing)."""
    plane = np.asarray(image, dtype=np.float64)
    std = plane.std()
    if std < 1e-12:
        return np.zeros_like(plane)
    return (plane - plane.mean()) / std


def mean_squared_error(first: np.ndarray, second: np.ndarray) -> float:
    """Pixel-wise mean squared error between two planes of equal shape."""
    a = np.asarray(first, dtype=np.float64)
    b = np.asarray(second, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigurationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))
