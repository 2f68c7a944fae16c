"""Still-image helpers for the codec tests.

No shipping run encodes a bare still: the video encoder packs I-frames
itself (``pack_image`` on planes it has already quantised), and the
decoders read them back a batch at a time (``decode_images``).  These are
the one-image forms the tests write their cases with.
"""

import numpy as np

from repro.codec.blocks import DEFAULT_BLOCK_SIZE
from repro.codec.jpeg import (_image_planes, decode_images, pack_image,
                              quantise_plane)
from repro.codec.transform import quantisation_matrix


def encode_image(image: np.ndarray, quality: int = 75,
                 block_size: int = DEFAULT_BLOCK_SIZE) -> bytes:
    """Encode a grayscale ``(H, W)`` or RGB ``(H, W, 3)`` ``uint8`` image.

    Returns the container bytes (header + per-plane payloads).
    """
    image = np.asarray(image)
    matrix = quantisation_matrix(quality, block_size)
    return pack_image(image.shape[0], image.shape[1], quality, block_size,
                      [quantise_plane(plane, matrix, block_size)
                       for plane in _image_planes(image)])


def decode_image(data: bytes) -> np.ndarray:
    """:func:`decode_images` on one image."""
    return decode_images([data])[0]
