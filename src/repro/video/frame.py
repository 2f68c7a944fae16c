"""Frame and resolution primitives shared by the whole library.

A :class:`Frame` is a single uncompressed video picture: a ``uint8`` numpy
array of shape ``(height, width)`` (grayscale) or ``(height, width, 3)``
(RGB), tagged with its index in the source video and its presentation
timestamp.  Encoded pictures live in :mod:`repro.codec.bitstream` instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..config import POSITIVE, real_number, whole_number
from ..errors import ConfigurationError


class FrameType(enum.Enum):
    """Picture type of an encoded frame.

    ``I`` frames are independently decodable key frames; ``P`` frames are
    predicted from the previous frame via motion compensation.  The paper's
    I-frame seeker keeps only ``I`` frames.  ``B`` frames are included for
    completeness of the GOP model but the encoder in this reproduction does
    not emit them (the paper's semantic encoder relies on I/P structure).
    """

    I = "I"  # noqa: E741 - the codec-standard name is a single letter.
    P = "P"
    B = "B"


@dataclass(frozen=True, order=True)
class Resolution:
    """A frame resolution in pixels.

    Attributes:
        width: Horizontal size in pixels.
        height: Vertical size in pixels.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        whole_number(self.width, "Resolution width", least=1)
        whole_number(self.height, "Resolution height", least=1)

    @property
    def pixels(self) -> int:
        """Total number of pixels per frame."""
        return self.width * self.height

    @property
    def shape(self) -> Tuple[int, int]:
        """Numpy-style ``(height, width)`` shape."""
        return (self.height, self.width)

    def scaled(self, factor: float) -> "Resolution":
        """Return this resolution scaled by ``factor`` (minimum 16x16)."""
        real_number(factor, "scale factor", **POSITIVE)
        return Resolution(max(int(round(self.width * factor)), 16),
                          max(int(round(self.height * factor)), 16))

    def __str__(self) -> str:
        return f"{self.width}x{self.height}"


#: Resolutions named in Table I of the paper.
RESOLUTION_400P = Resolution(600, 400)
RESOLUTION_720P = Resolution(1280, 720)
RESOLUTION_1080P = Resolution(1920, 1080)


@dataclass
class Frame:
    """A single uncompressed video frame.

    Attributes:
        index: Zero-based frame index in the source video.
        data: ``uint8`` array of shape ``(H, W)`` or ``(H, W, 3)``.
        timestamp: Presentation time in seconds.
        frame_type: Optional picture type assigned by an encoder or seeker.
    """

    index: int
    data: np.ndarray
    timestamp: float = 0.0
    frame_type: Optional[FrameType] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        if self.data.ndim not in (2, 3):
            raise ConfigurationError(
                f"Frame data must be 2-D or 3-D, got shape {self.data.shape}")
        if self.data.ndim == 3 and self.data.shape[2] != 3:
            raise ConfigurationError(
                f"Color frames must have 3 channels, got {self.data.shape[2]}")
        if self.data.dtype != np.uint8:
            self.data = np.clip(self.data, 0, 255).astype(np.uint8)
        if type(self.index) is not int or self.index < 0:
            whole_number(self.index, "Frame index", least=0)

    def to_grayscale(self) -> np.ndarray:
        """Return a ``float64`` grayscale (luma) plane in ``[0, 255]``.

        Uses the ITU-R BT.601 luma weights, which is what consumer codecs and
        OpenCV's default RGB-to-gray conversion use.
        """
        if self.data.ndim == 2:
            return self.data.astype(np.float64)
        weights = np.array([0.299, 0.587, 0.114])
        return self.data.astype(np.float64) @ weights

    def __repr__(self) -> str:  # pragma: no cover - debugging aid only.
        kind = self.frame_type.value if self.frame_type else "?"
        height, width = self.data.shape[:2]
        return (f"Frame(index={self.index}, {width}x{height}, type={kind}, "
                f"t={self.timestamp:.3f}s)")
