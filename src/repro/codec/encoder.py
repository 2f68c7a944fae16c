"""The semantic video encoder.

:class:`VideoEncoder` encodes a raw video into an :class:`EncodedVideo` using
the classic hybrid-coding structure (I-frames coded like still JPEG images,
P-frames coded as motion-compensated residuals), with I-frame placement
driven by the two parameters the paper tunes: GOP size and scenecut
threshold.

Two encoding modes are provided:

* ``materialise_payload=True`` — real byte payloads are produced for every
  frame so the video can be serialised and decoded again (used by the
  round-trip tests and the edge-storage path);
* ``materialise_payload=False`` (default) — only the *exact* payload sizes
  are computed (the entropy coder is byte-aligned, so sizes can be computed
  without emitting bytes).  This is what the experiment harnesses use: frame
  types and sizes fully determine the paper's metrics.

The encoder also exposes :meth:`VideoEncoder.analyze`, a parameter-free
lookahead pass producing one :class:`FrameActivity` per frame; the offline
tuner evaluates every (GOP, scenecut) configuration against a single such
pass instead of re-encoding the video k*l times.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence

import numpy as np

from ..contracts import validate_precision
from ..errors import EncodeError
from ..logging_utils import get_logger
from ..video.frame import FrameType
from ..video.raw_video import VideoSource
from .bitstream import EncodedFrame, EncodedVideo
from .blocks import pad_plane, to_blocks, from_blocks, crop_plane
from .entropy import encode_blocks, encoded_size_bytes
from .gop import EncoderParameters, KeyframePlacer, StreamingKeyframePlacer
from .jpeg import pack_image, packed_image_size, quantise_plane
from .motion import MotionSearch, motion_compensate
from .scenecut import FrameActivity, SceneCutAnalyzer
from .transform import (dct2_blocks, dequantise_blocks, idct2_blocks,
                        quantisation_matrix, quantise_blocks)

_LOGGER = get_logger(__name__)

#: Header prepended to every P-frame payload: marker, block size, quality,
#: blocks_y, blocks_x, residual payload length.
_P_FRAME_HEADER = struct.Struct(">cBBHHI")
P_FRAME_MARKER = b"P"

#: Quantised residual levels with absolute value at or below this are zeroed
#: in P-frames.  Real encoders achieve the same effect with a quantiser
#: dead-zone: sensor noise never survives into the bitstream, only genuine
#: prediction failures (new objects, disocclusions) do.
P_FRAME_DEADZONE = 1


def pack_bitmap(flags: np.ndarray) -> bytes:
    """Pack a boolean array into a row-major bitmap (MSB first)."""
    return np.packbits(flags.astype(bool).ravel()).tobytes()


class VideoEncoder:
    """Semantic video encoder.

    Args:
        parameters: Encoder configuration (GOP size, scenecut threshold,
            quality, macroblock size, motion-search radius).
        precision: Numeric mode of the motion search — ``"exact"`` (the
            default, bit-identical to the seed) or ``"fast"`` (float32
            SADs under :data:`repro.contracts.FAST_CONTRACT`).
    """

    def __init__(self, parameters: Optional[EncoderParameters] = None,
                 precision: str = "exact") -> None:
        self.parameters = parameters or EncoderParameters()
        self.precision = validate_precision(precision)
        self._matrix = quantisation_matrix(self.parameters.quality,
                                           self.parameters.block_size)

    # ------------------------------------------------------------------ #
    # Lookahead analysis
    # ------------------------------------------------------------------ #
    def make_analyzer(self) -> SceneCutAnalyzer:
        """Build a scene-cut analyser matching the encoder's block settings."""
        return SceneCutAnalyzer(block_size=self.parameters.block_size,
                                search_radius=self.parameters.search_radius,
                                precision=self.precision)

    def analyze(self, video: VideoSource) -> List[FrameActivity]:
        """Run the parameter-independent lookahead pass over ``video``."""
        return self.make_analyzer().analyze_video(video)

    def place_frame_types(self, activities: Sequence[FrameActivity]) -> List[FrameType]:
        """Frame types this encoder's parameters assign to an analysis pass."""
        return KeyframePlacer(self.parameters).place(activities)

    # ------------------------------------------------------------------ #
    # Frame-level encoding
    # ------------------------------------------------------------------ #
    def _encode_keyframe(self, luma: np.ndarray, materialise: bool):
        """Encode an I-frame; returns (payload or None, size, reconstruction).

        The plane is transformed and quantised once; the payload (or its
        size) and the decoder-side reconstruction both come from those
        coefficients.
        """
        parameters = self.parameters
        image = np.clip(luma, 0, 255).astype(np.uint8)
        height, width = image.shape
        quantised = quantise_plane(image, self._matrix, parameters.block_size)
        if materialise:
            payload = pack_image(height, width, parameters.quality,
                                 parameters.block_size, [quantised])
            size = len(payload)
        else:
            payload = None
            size = packed_image_size([quantised])
        reconstructed = idct2_blocks(dequantise_blocks(quantised, self._matrix)) + 128.0
        plane = crop_plane(from_blocks(reconstructed), height, width)
        return payload, size, np.clip(plane, 0, 255)

    def _encode_predicted(self, search: MotionSearch, reference: np.ndarray,
                          luma: np.ndarray, materialise: bool):
        """Encode a P-frame against ``reference``; returns (payload, size, recon).

        The P-frame payload mimics a real inter-coded picture:

        * a bitmap marking the blocks with a non-zero motion vector, followed
          by two bytes per such block (``dy``, ``dx``) — blocks that did not
          move cost one bit each, like H.264 skip signalling;
        * a bitmap marking the blocks whose quantised residual (after the
          dead-zone) has any non-zero coefficient, followed by the entropy
          payload of only those blocks.
        """
        block_size = self.parameters.block_size
        field = search(reference, luma)
        prediction = motion_compensate(reference, field, luma.shape)
        residual = luma - prediction
        residual_blocks = to_blocks(pad_plane(residual, block_size), block_size)
        matrix = self._matrix
        quantised = quantise_blocks(dct2_blocks(residual_blocks), matrix)
        quantised[np.abs(quantised) <= P_FRAME_DEADZONE] = 0
        blocks_y, blocks_x = quantised.shape[:2]

        moving = np.any(field.vectors != 0, axis=2)
        coded = np.any(quantised != 0, axis=(2, 3))
        mv_bitmap = pack_bitmap(moving)
        coded_bitmap = pack_bitmap(coded)
        mv_bytes = field.vectors[moving].astype(np.int8).tobytes()
        coded_blocks = quantised[coded][:, None, :, :]  # (n, 1, b, b) block array
        if materialise:
            residual_payload = (encode_blocks(coded_blocks)
                                if coded_blocks.shape[0] else b"")
            header = _P_FRAME_HEADER.pack(P_FRAME_MARKER, block_size,
                                          self.parameters.quality, blocks_y, blocks_x,
                                          len(residual_payload))
            payload = (header + mv_bitmap + coded_bitmap + mv_bytes
                       + residual_payload)
            size = len(payload)
        else:
            payload = None
            residual_size = (encoded_size_bytes(coded_blocks)
                             if coded_blocks.shape[0] else 0)
            size = (_P_FRAME_HEADER.size + len(mv_bitmap) + len(coded_bitmap)
                    + len(mv_bytes) + residual_size)
        reconstructed_residual = idct2_blocks(dequantise_blocks(quantised, matrix))
        residual_plane_full = crop_plane(from_blocks(reconstructed_residual),
                                         luma.shape[0], luma.shape[1])
        reconstruction = np.clip(prediction + residual_plane_full, 0, 255)
        return payload, size, reconstruction

    # ------------------------------------------------------------------ #
    # Video-level encoding
    # ------------------------------------------------------------------ #
    def encode(self, video: VideoSource, materialise_payload: bool = False,
               activities: Optional[Sequence[FrameActivity]] = None) -> EncodedVideo:
        """Encode a whole video.

        Args:
            video: Source video.
            materialise_payload: Produce decodable byte payloads (slower) or
                exact sizes only.
            activities: Optional precomputed lookahead pass.  When provided
                the scene-cut analysis is not recomputed, but the frame count
                must match the video.

        Returns:
            The encoded video, with per-frame types, sizes and (optionally)
            payloads.

        Raises:
            EncodeError: If a precomputed analysis pass does not match the
                video length.
        """
        parameters = self.parameters
        if activities is not None and len(activities) != video.metadata.num_frames:
            raise EncodeError(
                f"analysis pass has {len(activities)} entries for a video of "
                f"{video.metadata.num_frames} frames")
        if activities is not None:
            # A lookahead exists: place every frame type up front.
            frame_types = self.place_frame_types(activities)
        else:
            # Live encode: analyse and decide one frame at a time.
            analyzer = self.make_analyzer()
            placer = StreamingKeyframePlacer(parameters)
        # One search for the whole video: it keeps its candidate stack.
        search = MotionSearch(parameters.block_size, parameters.search_radius,
                              precision=self.precision)

        encoded_frames: List[EncodedFrame] = []
        reference: Optional[np.ndarray] = None
        keyframes = 0
        for frame in video.frames():
            luma = frame.to_grayscale()
            if activities is not None:
                activity = activities[frame.index]
                frame_type = frame_types[frame.index]
            else:
                activity = analyzer.analyze_next(luma)
                frame_type = placer.decide(activity)
            if frame_type is FrameType.I:
                payload, size, reconstruction = self._encode_keyframe(
                    luma, materialise_payload)
                keyframes += 1
            else:
                payload, size, reconstruction = self._encode_predicted(
                    search, reference, luma, materialise_payload)
            reference = reconstruction
            encoded_frames.append(EncodedFrame(
                index=frame.index, frame_type=frame_type, size_bytes=size,
                payload=payload,
                novel_block_fraction=activity.novel_block_fraction))
        _LOGGER.debug("encoded %s: %d frames, %d keyframes (%s)",
                      video.metadata.name, len(encoded_frames), keyframes,
                      parameters.describe())
        return EncodedVideo(video.metadata, parameters, encoded_frames)


def encode_video(video: VideoSource, parameters: Optional[EncoderParameters] = None,
                 materialise_payload: bool = False,
                 activities: Optional[Sequence[FrameActivity]] = None,
                 precision: str = "exact") -> EncodedVideo:
    """Module-level convenience wrapper around :class:`VideoEncoder`."""
    return VideoEncoder(parameters, precision).encode(video, materialise_payload,
                                                      activities)


def analyze_video(video: VideoSource,
                  parameters: Optional[EncoderParameters] = None,
                  precision: str = "exact") -> List[FrameActivity]:
    """Run the lookahead analysis pass for ``video``."""
    return VideoEncoder(parameters, precision).analyze(video)
