"""Size models for frames shipped over the network.

The paper resizes decoded I-frames to the NN input resolution (300x300)
before transmitting them to the cloud; the transmitted artefact is a
compressed still image.  The end-to-end simulation needs its size without
actually compressing millions of thumbnails, so this module provides the
compact size model used throughout the pipeline (and validated against the
real still-image codec in the test suite).
"""

from __future__ import annotations

from .config import POSITIVE, real_number

#: Compressed bytes per pixel of a typical surveillance thumbnail.  JPEG of
#: natural images at quality ~75 lands between 0.2 and 0.5 byte/pixel; the
#: paper's aggregate numbers (1.688 GB for the resized I-frames of 2.16 M
#: frames at ~2-3.5 % sampling) correspond to roughly 0.3 byte/pixel.
DEFAULT_BYTES_PER_PIXEL = 0.3

#: Fixed container/header overhead per shipped image.
HEADER_OVERHEAD_BYTES = 256


def resized_frame_bytes(width: int, height: int) -> int:
    """Estimated compressed size of one resized frame as shipped to the cloud.

    The frame has three colour channels; chroma is subsampled, so the two
    beyond luma add half their raw weight.

    Args:
        width: Thumbnail width in pixels.
        height: Thumbnail height in pixels.

    Returns:
        Estimated size in bytes.
    """
    for name, side in (("width", width), ("height", height)):
        real_number(side, name, **POSITIVE)
    luma = width * height * DEFAULT_BYTES_PER_PIXEL
    return int(luma + luma * 0.5 * 2 / 2.0) + HEADER_OVERHEAD_BYTES
