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

There is one frame loop, :func:`encode_lockstep`: it encodes a video under
several parameter sets at once and computes each frame only once for the
streams that would produce the same bits (the offline stage prices semantic
encoding by encoding under the tuned *and* the default configuration, which
differ only in where the I-frames go).  :meth:`VideoEncoder.encode` is its
one-stream case.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..contracts import validate_precision
from ..errors import EncodeError
from ..logging_utils import get_logger
from ..perf import record_value
from ..video.frame import FrameType
from ..video.raw_video import VideoSource
from .bitstream import EncodedFrame, EncodedVideo
from .blocks import pad_plane, to_blocks, from_blocks, crop_plane
from .entropy import encode_blocks, encoded_size_bytes
from .gop import (ActivityColumns, EncoderParameters, KeyframePlacer,
                  StreamingKeyframePlacer)
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


def unpack_bitmap(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bitmap` for the first ``count`` flags."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)
    return bits.astype(bool)


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
    # Video-level encoding
    # ------------------------------------------------------------------ #
    def encode(self, video: VideoSource, materialise_payload: bool = False,
               activities: Optional[Sequence[FrameActivity]] = None) -> EncodedVideo:
        """Encode a whole video: the one-stream case of :func:`encode_lockstep`.

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
        return encode_lockstep(video, [self.parameters], materialise_payload,
                               activities, self.precision)[0]


class _FrameCoder:
    """Frame-level coding under one ``(quality, block_size, search_radius)``.

    Together with the pixels (and, for a P-frame, the reference
    reconstruction) these are everything a frame's bytes, size and
    reconstruction depend on — GOP size and scenecut threshold only decide
    *which* frames are I-frames.  Lockstep streams that agree on all three
    therefore share one coder, and share a frame's work whenever they also
    agree on its type and reference.
    """

    def __init__(self, parameters: EncoderParameters, precision: str) -> None:
        self.quality = parameters.quality
        self.block_size = parameters.block_size
        self.matrix = quantisation_matrix(self.quality, self.block_size)
        self.search = MotionSearch(self.block_size, parameters.search_radius,
                                   precision=precision)

    def encode_keyframe(self, luma: np.ndarray, materialise: bool):
        """Encode an I-frame; returns (payload or None, size, reconstruction)."""
        image = np.clip(luma, 0, 255).astype(np.uint8)
        height, width = image.shape
        quantised = quantise_plane(image, self.matrix, self.block_size)
        if materialise:
            payload = pack_image(height, width, self.quality, self.block_size,
                                 [quantised])
            size = len(payload)
        else:
            payload = None
            size = packed_image_size([quantised])
        # Decoder-side reconstruction, from the same coefficients.
        reconstructed = idct2_blocks(dequantise_blocks(quantised, self.matrix)) + 128.0
        plane = crop_plane(from_blocks(reconstructed), height, width)
        return payload, size, np.clip(plane, 0, 255)

    def encode_predicted(self, reference: np.ndarray, luma: np.ndarray,
                         materialise: bool):
        """Encode a P-frame against ``reference``; returns (payload, size, recon).

        The P-frame payload mimics a real inter-coded picture:

        * a bitmap marking the blocks with a non-zero motion vector, followed
          by two bytes per such block (``dy``, ``dx``) — blocks that did not
          move cost one bit each, like H.264 skip signalling;
        * a bitmap marking the blocks whose quantised residual (after the
          dead-zone) has any non-zero coefficient, followed by the entropy
          payload of only those blocks.
        """
        block_size = self.block_size
        motion = self.search(reference, luma)
        prediction = motion_compensate(reference, motion, luma.shape)
        residual = luma - prediction
        residual_blocks = to_blocks(pad_plane(residual, block_size), block_size)
        quantised = quantise_blocks(dct2_blocks(residual_blocks), self.matrix)
        quantised[np.abs(quantised) <= P_FRAME_DEADZONE] = 0
        blocks_y, blocks_x = quantised.shape[:2]

        moving = np.any(motion.vectors != 0, axis=2)
        coded = np.any(quantised != 0, axis=(2, 3))
        mv_bitmap = pack_bitmap(moving)
        coded_bitmap = pack_bitmap(coded)
        mv_bytes = motion.vectors[moving].astype(np.int8).tobytes()
        coded_blocks = quantised[coded][:, None, :, :]  # (n, 1, b, b) block array
        if materialise:
            residual_payload = (encode_blocks(coded_blocks)
                                if coded_blocks.shape[0] else b"")
            header = _P_FRAME_HEADER.pack(P_FRAME_MARKER, block_size,
                                          self.quality, blocks_y, blocks_x,
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
        reconstructed_residual = idct2_blocks(
            dequantise_blocks(quantised, self.matrix))
        residual_plane_full = crop_plane(from_blocks(reconstructed_residual),
                                         luma.shape[0], luma.shape[1])
        reconstruction = np.clip(prediction + residual_plane_full, 0, 255)
        return payload, size, reconstruction


@dataclass
class _Stream:
    """One parameter set's state inside :func:`encode_lockstep`.

    ``keyframes`` is the up-front placement when a lookahead exists;
    a live encode decides frame by frame with ``analyzer`` and ``placer``.
    """

    parameters: EncoderParameters
    coder: _FrameCoder
    keyframes: Optional[Set[int]] = None
    analyzer: Optional[SceneCutAnalyzer] = None
    placer: Optional[StreamingKeyframePlacer] = None
    reference: Optional[np.ndarray] = None
    frames: List[EncodedFrame] = field(default_factory=list)


def encode_lockstep(video: VideoSource,
                    parameter_sets: Sequence[EncoderParameters],
                    materialise_payload: bool = False,
                    activities: Optional[Sequence[FrameActivity]] = None,
                    precision: str = "exact") -> List[EncodedVideo]:
    """Encode ``video`` under several parameter sets in one pass over its frames.

    Every stream's output equals ``VideoEncoder(parameters,
    precision).encode(video, materialise_payload, activities)`` field for
    field; the streams merely stop repeating each other's work.  Per frame,
    streams whose coding parameters (``quality``, ``block_size``,
    ``search_radius``), frame type and *reference object* coincide encode
    the frame once and share the result — payload, size and reconstruction.
    All such streams start identical (frame 0 is an I-frame for everyone),
    stay so through the P-frames that follow, diverge at the first I-frame
    one of them places alone, and resynchronise at the next I-frame they
    place together, which hands them one reconstruction object again.  Only
    each stream's current reference is kept.

    Args:
        video: Source video.
        parameter_sets: One :class:`EncoderParameters` per output stream.
        materialise_payload: Produce decodable byte payloads (slower) or
            exact sizes only.
        activities: Optional precomputed lookahead pass shared by every
            stream.  When provided the scene-cut analysis is not
            recomputed, but the frame count must match the video.  Without
            it each stream analyses and decides one frame at a time (a
            live encode), streams with equal block settings sharing the
            analysis.
        precision: Numeric mode of the motion search.

    Returns:
        One :class:`EncodedVideo` per parameter set, in order.

    Raises:
        EncodeError: If a precomputed analysis pass does not match the
            video length.
    """
    precision = validate_precision(precision)
    if activities is not None and len(activities) != video.metadata.num_frames:
        raise EncodeError(
            f"analysis pass has {len(activities)} entries for a video of "
            f"{video.metadata.num_frames} frames")
    coders: Dict[tuple, _FrameCoder] = {}
    analyzers: Dict[tuple, SceneCutAnalyzer] = {}
    columns = ActivityColumns(activities) if activities is not None else None
    streams: List[_Stream] = []
    for parameters in parameter_sets:
        coding = (parameters.quality, parameters.block_size,
                  parameters.search_radius)
        if coding not in coders:
            coders[coding] = _FrameCoder(parameters, precision)
        stream = _Stream(parameters, coders[coding])
        if columns is not None:
            stream.keyframes = set(columns.keyframe_indices(parameters))
        else:
            blocks = (parameters.block_size, parameters.search_radius)
            if blocks not in analyzers:
                analyzers[blocks] = VideoEncoder(parameters,
                                                 precision).make_analyzer()
            stream.analyzer = analyzers[blocks]
            stream.placer = StreamingKeyframePlacer(parameters)
        streams.append(stream)

    encoded_count = shared_count = 0
    for frame in video.frames():
        luma = frame.to_grayscale()
        live = {analyzer: analyzer.analyze_next(luma)
                for analyzer in analyzers.values()}
        # (coder, reference or None for an I-frame, result) of every encode
        # made for this frame so far; holding the reference keeps the ``is``
        # test below sound after a stream has moved on to its new one.
        done: List[tuple] = []
        for stream in streams:
            if activities is not None:
                activity = activities[frame.index]
                frame_type = (FrameType.I if frame.index in stream.keyframes
                              else FrameType.P)
            else:
                activity = live[stream.analyzer]
                frame_type = stream.placer.decide(activity)
            coder = stream.coder
            reference = None if frame_type is FrameType.I else stream.reference
            for done_coder, done_reference, result in done:
                if done_coder is coder and done_reference is reference:
                    shared_count += 1
                    break
            else:
                if frame_type is FrameType.I:
                    result = coder.encode_keyframe(luma, materialise_payload)
                else:
                    result = coder.encode_predicted(reference, luma,
                                                    materialise_payload)
                done.append((coder, reference, result))
                encoded_count += 1
            payload, size, stream.reference = result
            stream.frames.append(EncodedFrame(
                index=frame.index, frame_type=frame_type, size_bytes=size,
                payload=payload,
                novel_block_fraction=activity.novel_block_fraction))
    record_value("codec.lockstep_encoded_frames", encoded_count)
    record_value("codec.lockstep_shared_frames", shared_count)
    encoded = [EncodedVideo(video.metadata, stream.parameters, stream.frames)
               for stream in streams]
    for result in encoded:
        _LOGGER.debug("encoded %s: %d frames, %d keyframes (%s)",
                      video.metadata.name, result.num_frames,
                      result.num_keyframes, result.parameters.describe())
    return encoded


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
