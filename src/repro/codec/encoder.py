"""The semantic video encoder.

:class:`VideoEncoder` encodes a raw video into an :class:`EncodedVideo` using
the classic hybrid-coding structure (I-frames coded like still JPEG images,
P-frames coded as motion-compensated residuals), with I-frame placement
driven by the two parameters the paper tunes: GOP size and scenecut
threshold.

Two modes share one frame loop: ``materialise_payload=True`` produces the
byte payloads, so the video can be stored and decoded again; the default
computes only their *exact* sizes, which is what the experiment harnesses
use (frame types and sizes fully determine the paper's metrics).

Every encode places its frames from :meth:`VideoEncoder.analyze`, a
parameter-free lookahead pass producing one :class:`FrameActivity` per
frame, run first when the caller does not pass one in; the offline tuner
evaluates every (GOP, scenecut) configuration against a single such pass
instead of re-encoding the video k*l times.

The frame loop carries only the closed loop the next reference needs:
search, prediction, residual transform, quantisation and dead-zone, and
reconstruction.  The search skips the per-pair checks of its call
(``_search_exact``): every plane an encode searches is in ``[0,
motion.PLANE_MAX]``.  The prediction is a :class:`CompensationPlan` kept
for the video.  P-frame
sizes and payloads are computed after the loop, a run of frames at a time
(:meth:`VideoEncoder._size_run`); I-frames are sized as they are coded.
"""

from __future__ import annotations

import struct
from collections import abc
from itertools import repeat
from typing import List, Optional, Sequence

import numpy as np

from ..config import validate_precision
from ..errors import EncodeError
from ..logging_utils import get_logger
from ..video.frame import FrameType
from ..video.raw_video import VideoSource
from .bitstream import EncodedFrame, EncodedVideo
from .blocks import pad_plane, to_blocks, from_blocks, crop_plane
from .entropy import encode_blocks, encoded_block_sizes
from .gop import EncoderParameters, KeyframePlacer
from .jpeg import pack_image, packed_image_size, quantise_plane
from .motion import CompensationPlan, MotionSearch
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

#: The motion vectors and coded blocks, in bytes, that P-frames awaiting
#: their sizes may hold before the run is sized: enough to share the
#: sizing's numpy calls, little enough to stay under the traced peak.
_SIZING_BYTES = 1 << 16


class VideoEncoder:
    """Semantic video encoder.

    Args:
        parameters: Encoder configuration (GOP size, scenecut threshold,
            quality, macroblock size, motion-search radius).
        precision: Checked by :func:`~repro.config.validate_precision` and
            otherwise ignored: the codec has one numeric mode.  The
            benchmark still passes it; ROADMAP item 18 removes it.

    Raises:
        EncodeError: If ``parameters`` is not an :class:`EncoderParameters`.
    """

    def __init__(self, parameters: Optional[EncoderParameters] = None,
                 precision: str = "exact") -> None:
        validate_precision(precision)
        if not isinstance(parameters, (EncoderParameters, type(None))):
            raise EncodeError(f"parameters must be EncoderParameters, got "
                              f"{type(parameters).__name__}")
        self.parameters = parameters or EncoderParameters()
        self._matrix = quantisation_matrix(self.parameters.quality,
                                           self.parameters.block_size)

    # ------------------------------------------------------------------ #
    # Lookahead analysis
    # ------------------------------------------------------------------ #
    def analyze(self, video: VideoSource) -> List[FrameActivity]:
        """Run the parameter-independent lookahead pass over ``video``."""
        return SceneCutAnalyzer(self.parameters.block_size,
                                self.parameters.search_radius
                                ).analyze_video(video)

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

    def _predict(self, search: MotionSearch, plan: CompensationPlan,
                 reference: np.ndarray, luma: np.ndarray):
        """The closed loop of one P-frame: search, prediction, residual and
        reconstruction; returns (vectors, coded, coded blocks, recon)."""
        block_size, matrix = self.parameters.block_size, self._matrix
        vectors = search._search_exact(reference, luma).vectors
        prediction = plan(reference, vectors, luma.shape)
        quantised = quantise_blocks(dct2_blocks(to_blocks(
            pad_plane(luma - prediction, block_size), block_size)), matrix)
        kept = np.abs(quantised) > P_FRAME_DEADZONE
        quantised *= kept  # the dead-zone, without a boolean scatter
        coded = kept.any(axis=(2, 3))
        blocks = quantised[coded]
        if blocks.size:
            # A block without coefficients inverse-transforms to +0.0, which
            # leaves its prediction as it is: only coded blocks are added.
            residual = np.zeros(plan.shape)
            to_blocks(residual, block_size)[coded] = idct2_blocks(
                dequantise_blocks(blocks[:, None], matrix))[:, 0]
            prediction = np.clip(prediction + crop_plane(residual, *luma.shape),
                                 0, 255)
        return vectors, coded, blocks, prediction

    def _size_run(self, run: list, sizes: np.ndarray,
                  payloads: List[Optional[bytes]], materialise: bool) -> None:
        """Size (and, materialising, pack) a run of P-frames at once.

        ``run`` holds each frame's ``(index, vectors, coded, blocks)``.  A
        P-frame is a header, bitmaps of the moving and of the coded blocks
        (like H.264 skip signalling), ``dy, dx`` bytes per moving block and
        the coded blocks' entropy payload, byte-aligned per block: one
        sizing (and one :func:`encode_blocks`) splits back per frame."""
        indices, vectors, coded, blocks = zip(*run)
        vectors, coded = np.stack(vectors), np.stack(coded)
        moving = vectors.any(axis=3)
        moved = moving.sum(axis=(1, 2))
        bounds = np.cumsum([0, *map(len, blocks)])
        blocks = np.concatenate(blocks)[:, None]
        # Each frame's residual ends here in the run's entropy payload.
        ends = np.concatenate(([0], np.cumsum(encoded_block_sizes(blocks))))[bounds]
        sizes[list(indices)] = (_P_FRAME_HEADER.size + 2 * -(-coded[0].size // 8)
                                + 2 * moved + np.diff(ends))
        if materialise:
            residuals, ends = encode_blocks(blocks), ends.tolist()
            flags = np.packbits(np.stack((moving, coded), axis=1).reshape(
                len(run), 2, -1), axis=2)
            motion = vectors[moving].astype(np.int8).tobytes()
            moved = [0, *np.cumsum(2 * moved).tolist()]
            for k, index in enumerate(indices):
                payloads[index] = b"".join((_P_FRAME_HEADER.pack(
                    P_FRAME_MARKER, self.parameters.block_size,
                    self.parameters.quality, *coded.shape[1:],
                    ends[k + 1] - ends[k]), flags[k].tobytes(),
                    motion[moved[k]:moved[k + 1]], residuals[ends[k]:ends[k + 1]]))

    # ------------------------------------------------------------------ #
    # Video-level encoding
    # ------------------------------------------------------------------ #
    def encode(self, video: VideoSource, materialise_payload: bool = False,
               activities: Optional[Sequence[FrameActivity]] = None) -> EncodedVideo:
        """Encode a whole video.

        Frame types come from one lookahead pass (:meth:`analyze`) through
        :class:`KeyframePlacer`, whether the pass is given or run here.

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
            EncodeError: If a precomputed analysis pass is not a sequence of
                :class:`FrameActivity` matching the video length, or a frame
                is not a ``uint8`` frame of the video's resolution.
        """
        parameters = self.parameters
        num_frames = video.metadata.num_frames
        if activities is None:
            activities = self.analyze(video)
        elif not (isinstance(activities, abc.Sequence) and all(
                map(isinstance, activities, repeat(FrameActivity)))):
            raise EncodeError(f"activities must be a sequence of FrameActivity, "
                              f"got {type(activities).__name__}")
        elif len(activities) != num_frames:
            raise EncodeError(
                f"analysis pass has {len(activities)} entries for a video of "
                f"{num_frames} frames")
        frame_types = self.place_frame_types(activities)
        # One search and one compensation plan for the whole video.
        shape, radius = video.metadata.resolution.shape, parameters.search_radius
        search = MotionSearch(parameters.block_size, radius)
        plan = CompensationPlan(shape, parameters.block_size, radius)
        sizes = np.zeros(num_frames, dtype=np.int64)
        payloads: List[Optional[bytes]] = [None] * num_frames
        run, held = [], 0  # P-frames awaiting their sizes, and their bytes
        reference: Optional[np.ndarray] = None
        count = 0  # frames the source yields; EncodedVideo checks them
        for count, frame in enumerate(video.frames(), 1):
            luma, index = frame.to_grayscale(), frame.index
            if luma.shape != shape or frame.data.dtype != np.uint8:
                raise EncodeError(
                    f"frame {index} holds a {luma.shape} {frame.data.dtype} plane; "
                    f"the encode takes uint8 frames of the video's {shape}")
            if frame_types[index] is FrameType.I:
                payloads[index], sizes[index], reference = self._encode_keyframe(
                    luma, materialise_payload)
                continue
            vectors, coded, blocks, reference = self._predict(
                search, plan, reference, luma)
            run.append((index, vectors, coded, blocks))
            held += vectors.nbytes + blocks.nbytes
            if held >= _SIZING_BYTES:
                self._size_run(run, sizes, payloads, materialise_payload)
                run, held = [], 0
        if run:
            self._size_run(run, sizes, payloads, materialise_payload)
        encoded_frames = [
            EncodedFrame(index, frame_type, size, payload,
                         activity.novel_block_fraction)
            for index, (frame_type, size, payload, activity) in enumerate(
                zip(frame_types[:count], sizes.tolist(), payloads, activities))]
        _LOGGER.debug("encoded %s: %d frames, %d keyframes (%s)",
                      video.metadata.name, len(encoded_frames),
                      frame_types.count(FrameType.I), parameters.describe())
        return EncodedVideo(video.metadata, parameters, encoded_frames)
