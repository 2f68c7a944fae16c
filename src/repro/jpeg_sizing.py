"""Size models for frames shipped over the network.

The paper resizes decoded I-frames to the NN input resolution (300x300)
before transmitting them to the cloud; the transmitted artefact is a
compressed still image.  The end-to-end simulation needs its size without
actually compressing millions of thumbnails, so this module provides the
compact size model used throughout the pipeline (and validated against the
real still-image codec in the test suite).
"""

from __future__ import annotations

from .errors import ConfigurationError

#: Compressed bytes per pixel of a typical surveillance thumbnail.  JPEG of
#: natural images at quality ~75 lands between 0.2 and 0.5 byte/pixel; the
#: paper's aggregate numbers (1.688 GB for the resized I-frames of 2.16 M
#: frames at ~2-3.5 % sampling) correspond to roughly 0.3 byte/pixel.
DEFAULT_BYTES_PER_PIXEL = 0.3

#: Fixed container/header overhead per shipped image.
HEADER_OVERHEAD_BYTES = 256


def resized_frame_bytes(width: int, height: int,
                        bytes_per_pixel: float = DEFAULT_BYTES_PER_PIXEL,
                        channels: int = 3) -> int:
    """Estimated compressed size of one resized frame as shipped to the cloud.

    Args:
        width: Thumbnail width in pixels.
        height: Thumbnail height in pixels.
        bytes_per_pixel: Compression density per luma pixel.
        channels: Number of colour channels (chroma is subsampled, so extra
            channels add half their raw weight).

    Returns:
        Estimated size in bytes.
    """
    if width <= 0 or height <= 0:
        raise ConfigurationError("thumbnail dimensions must be positive")
    if bytes_per_pixel <= 0:
        raise ConfigurationError("bytes_per_pixel must be positive")
    if channels < 1:
        raise ConfigurationError("channels must be >= 1")
    luma = width * height * bytes_per_pixel
    chroma = width * height * bytes_per_pixel * 0.5 * max(channels - 1, 0) / 2.0
    return int(luma + chroma) + HEADER_OVERHEAD_BYTES
