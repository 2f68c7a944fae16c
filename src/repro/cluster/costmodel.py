"""Calibrated per-operation cost model of the simulated testbed.

The paper's end-to-end numbers come from a physical edge desktop and cloud
server; this reproduction replaces them with a discrete cost model calibrated
to the per-frame costs the paper reports (Section V-A): I-frame seeking at
~0.43 ms/frame and full-frame decoding at ~8 ms/frame for 1080p, with both
scaling with frame resolution (Table III shows the same ~100x gap at
600x400), plus NN inference costs that differ between the edge and cloud
devices.

All methods return *seconds* for a batch of frames, already scaled by the
frame resolution and the executing node's speed factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import POSITIVE, HardwareCalibration, real_number, whole_number
from ..errors import ClusterError
from ..video.frame import RESOLUTION_1080P, Resolution

#: Pixel count all per-frame costs are calibrated against.
_REFERENCE_PIXELS = RESOLUTION_1080P.pixels


@dataclass(frozen=True)
class CostModel:
    """Per-operation timing model derived from a :class:`HardwareCalibration`.

    Attributes:
        calibration: The per-operation costs at the reference resolution.
    """

    calibration: HardwareCalibration = HardwareCalibration()

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def resolution_scale(resolution: Resolution) -> float:
        """Pixel-count ratio of ``resolution`` to the 1080p reference."""
        return resolution.pixels / _REFERENCE_PIXELS

    def _scaled(self, per_frame_ms: float, num_frames: int, resolution: Resolution,
                speed_factor: float) -> float:
        whole_number(num_frames, "num_frames", ClusterError, least=0)
        real_number(speed_factor, "speed_factor", ClusterError, **POSITIVE)
        scale = self.resolution_scale(resolution)
        return per_frame_ms * scale * num_frames / speed_factor / 1e3

    # ------------------------------------------------------------------ #
    # Video-path operations
    # ------------------------------------------------------------------ #
    def seek_seconds(self, num_frames: int, resolution: Resolution,
                     speed_factor: float = 1.0) -> float:
        """I-frame seeking over ``num_frames`` container index entries."""
        return self._scaled(self.calibration.seek_ms_per_frame_1080p, num_frames,
                            resolution, speed_factor)

    def decode_seconds(self, num_frames: int, resolution: Resolution,
                       speed_factor: float = 1.0) -> float:
        """Full hybrid decode (bitstream + motion compensation + IDCT)."""
        return self._scaled(self.calibration.decode_ms_per_frame_1080p, num_frames,
                            resolution, speed_factor)

    def jpeg_decode_seconds(self, num_frames: int, resolution: Resolution,
                            speed_factor: float = 1.0) -> float:
        """Still-image decode of independently coded I-frames."""
        return self._scaled(self.calibration.jpeg_decode_ms_per_frame_1080p,
                            num_frames, resolution, speed_factor)

    def mse_seconds(self, num_frames: int, resolution: Resolution,
                    speed_factor: float = 1.0) -> float:
        """MSE similarity computation on already decoded frames."""
        return self._scaled(self.calibration.mse_ms_per_frame_1080p, num_frames,
                            resolution, speed_factor)

    def sift_seconds(self, num_frames: int, resolution: Resolution,
                     speed_factor: float = 1.0) -> float:
        """SIFT feature extraction + matching on already decoded frames."""
        return self._scaled(self.calibration.sift_ms_per_frame_1080p, num_frames,
                            resolution, speed_factor)

    def resize_seconds(self, num_frames: int, speed_factor: float = 1.0) -> float:
        """Resizing decoded frames to the NN input resolution."""
        whole_number(num_frames, "num_frames", ClusterError, least=0)
        real_number(speed_factor, "speed_factor", ClusterError, **POSITIVE)
        return self.calibration.resize_ms_per_frame * num_frames / speed_factor / 1e3

    # ------------------------------------------------------------------ #
    # NN inference
    # ------------------------------------------------------------------ #
    def nn_seconds(self, num_frames: int, device: str = "cloud") -> float:
        """Object-detection NN inference on ``device`` (``"edge"``/``"cloud"``)."""
        whole_number(num_frames, "num_frames", ClusterError, least=0)
        if device == "edge":
            per_frame = self.calibration.edge_nn_ms_per_frame
            factor = self.calibration.edge_speed_factor
        elif device == "cloud":
            per_frame = self.calibration.cloud_nn_ms_per_frame
            factor = self.calibration.cloud_speed_factor
        else:
            raise ClusterError(f"unknown device {device!r}")
        # NN cost is independent of the source resolution: frames are resized
        # to the model input first.
        return per_frame * num_frames / factor / 1e3

    # ------------------------------------------------------------------ #
    # Derived quantities (used by Table III)
    # ------------------------------------------------------------------ #
    def event_detection_fps(self, method: str, resolution: Resolution,
                            speed_factor: float = 1.0) -> float:
        """Frames per second of an event-detection front end.

        Args:
            method: ``"sieve"`` (I-frame seeking), ``"mse"`` (decode + MSE) or
                ``"sift"`` (decode + SIFT).
            resolution: Source frame resolution.
            speed_factor: Executing node speed factor.

        Returns:
            Sustained frames per second of the front end.
        """
        if method == "sieve":
            per_frame = self.seek_seconds(1, resolution, speed_factor)
        elif method == "mse":
            per_frame = (self.decode_seconds(1, resolution, speed_factor)
                         + self.mse_seconds(1, resolution, speed_factor))
        elif method == "sift":
            per_frame = (self.decode_seconds(1, resolution, speed_factor)
                         + self.sift_seconds(1, resolution, speed_factor))
        else:
            raise ClusterError(f"unknown event-detection method {method!r}")
        if per_frame <= 0:
            raise ClusterError("per-frame cost must be positive")
        return 1.0 / per_frame
