"""Video decoder: the expensive path SiEVE avoids.

The decoder reconstructs pixels from an :class:`EncodedVideo` whose frames
carry payloads.  Two paths are provided:

* :meth:`VideoDecoder.decode_video` — the classical full-decode pipeline
  (every P-frame needs bit-stream parsing, motion compensation and the
  inverse transform), which is what decode-based baselines such as MSE/SIFT
  filtering must pay for every single frame;
* :meth:`VideoDecoder.decode_keyframes` — decodes only I-frames, each
  independently, exactly like still JPEG images (and, being independent,
  all of a clip's in one :func:`~repro.codec.jpeg.decode_images` call).
  This is the cheap path the edge compute engine uses after the I-frame
  seeker.

Parsing a P-frame needs nothing but its own bytes, so the full-decode path
parses a GOP at a time — all headers validated, all bitmaps unpacked, all
residual payloads scanned (:func:`~repro.codec.entropy.decode_block_payloads`)
and all coded blocks inverse-transformed at once — and keeps only the true
recurrence (reference -> prediction -> + residual -> clip) in a per-frame
loop.  It streams run by run rather than staging a whole clip.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import CodecError, DecodeError
from ..video.frame import Frame, FrameType
from ..video.raw_video import RawVideo, VideoMetadata
from .bitstream import EncodedFrame, EncodedVideo
from .blocks import block_grid
from .encoder import _P_FRAME_HEADER, P_FRAME_MARKER
from .entropy import decode_block_payloads
from .jpeg import decode_images
from .motion import MotionField, motion_compensate
from .transform import dequantise_blocks, idct2_blocks, quantisation_matrix

#: Upper bound, in payload bytes, on the P-frames parsed in one go.  A GOP of
#: small frames is one run; a long GOP of large frames is cut into several,
#: so the staged coefficients stay a bounded working set however long the
#: distance to the next I-frame is.
_RUN_BYTES = 1 << 15


class VideoDecoder:
    """Decoder for :class:`EncodedVideo` containers produced by the encoder."""

    # ------------------------------------------------------------------ #
    # Frame-level decoding
    # ------------------------------------------------------------------ #
    def _decode_stills(self, frames: Sequence[EncodedFrame]) -> List[np.ndarray]:
        """Decode I-frame payloads into luma planes, as one batch of stills."""
        for frame in frames:
            if not frame.is_keyframe:
                raise DecodeError(f"frame {frame.index} is not an I-frame")
            if frame.payload is None:
                raise DecodeError(
                    f"frame {frame.index} has no payload (size-only encoding)")
        return decode_images([frame.payload for frame in frames])

    def decode_keyframe(self, frame: EncodedFrame) -> np.ndarray:
        """Decode an I-frame payload into a luma plane."""
        return self._decode_stills([frame])[0]

    def _parse_run(self, encoded: EncodedVideo, frames: Sequence[EncodedFrame]
                   ) -> List[Tuple[np.ndarray, ...]]:
        """Parse consecutive P-frames into what their reconstruction needs.

        Parsing needs no reference picture, so the whole run is validated
        against the container, its bitmaps unpacked, its residual payloads
        scanned and its coded blocks inverse-transformed in one pass each.
        The checks come in the order a single frame meets them, so a run of
        one raises exactly that frame's first error; a longer run raises
        *some* error of a malformed frame and :meth:`iter_decoded_frames` parses
        it again frame by frame.  (So does a run whose frames change
        ``quality``, which the encoder never writes: a run shares one
        quantisation matrix.)

        Returns:
            Per frame ``(field, block_rows, block_cols, residuals)``: the
            motion field, and the grid coordinates and decoded ``(b, b)``
            residual of each coded block.
        """
        block_size = encoded.parameters.block_size
        height, width = encoded.metadata.resolution.shape
        blocks_y, blocks_x = block_grid(height, width, block_size)
        num_blocks = blocks_y * blocks_x
        bitmap_length = -(-num_blocks // 8)
        mv_start = _P_FRAME_HEADER.size + 2 * bitmap_length

        payloads = []
        residual_lengths = []
        for frame in frames:
            payload = frame.payload
            if payload is None:
                raise DecodeError(
                    f"frame {frame.index} has no payload (size-only encoding)")
            if len(payload) < _P_FRAME_HEADER.size:
                raise DecodeError(f"P-frame {frame.index} payload too short")
            marker, declared_block_size, quality, grid_y, grid_x, \
                residual_length = _P_FRAME_HEADER.unpack_from(payload)
            if marker != P_FRAME_MARKER:
                raise DecodeError(
                    f"bad P-frame marker {marker!r} in frame {frame.index}")
            if declared_block_size != block_size:
                raise DecodeError(
                    f"P-frame {frame.index} declares block_size "
                    f"{declared_block_size}, the stream's is {block_size}")
            if not 1 <= quality <= 100:
                raise DecodeError(
                    f"P-frame {frame.index} declares quality {quality}, "
                    "outside 1-100")
            if (grid_y, grid_x) != (blocks_y, blocks_x):
                raise DecodeError(
                    f"P-frame {frame.index} declares a {grid_y}x{grid_x} block "
                    f"grid, {encoded.metadata.resolution} at block_size "
                    f"{block_size} is {blocks_y}x{blocks_x}")
            if payloads and quality != run_quality:
                raise DecodeError(
                    f"P-frame {frame.index} changes quality within a run")
            run_quality = quality
            if len(payload) < mv_start:
                raise DecodeError(
                    f"P-frame {frame.index} payload has truncated bitmaps")
            payloads.append(payload)
            residual_lengths.append(residual_length)

        def first_index(bad: np.ndarray) -> int:
            return frames[int(bad.argmax())].index

        bitmaps = np.frombuffer(
            b"".join(payload[_P_FRAME_HEADER.size:mv_start]
                     for payload in payloads), dtype=np.uint8)
        flags = np.unpackbits(bitmaps.reshape(len(frames), 2, bitmap_length),
                              axis=2, count=num_blocks).view(bool)
        moving, coded = flags[:, 0], flags[:, 1]
        coded_counts = coded.sum(axis=1)
        residual_lengths = np.array(residual_lengths)
        residual_starts = mv_start + 2 * moving.sum(axis=1)
        bad = (residual_starts + residual_lengths
               != np.fromiter(map(len, payloads), np.int64, len(payloads)))
        if bad.any():
            raise DecodeError(
                f"P-frame {first_index(bad)} payload has inconsistent length")
        bad = (coded_counts == 0) & (residual_lengths > 0)
        if bad.any():
            raise DecodeError(
                f"P-frame {first_index(bad)} codes no block but carries "
                f"{int(residual_lengths[bad.argmax()])} residual bytes")

        residual_starts = residual_starts.tolist()
        vectors = np.zeros((len(frames), num_blocks, 2), dtype=np.int16)
        vectors[moving] = np.frombuffer(
            b"".join(payload[mv_start:residual_start] for payload, residual_start
                     in zip(payloads, residual_starts)),
            dtype=np.int8).reshape(-1, 2)
        vectors = vectors.reshape(len(frames), blocks_y, blocks_x, 2)
        residual_bytes = np.frombuffer(
            b"".join(payload[residual_start:] for payload, residual_start
                     in zip(payloads, residual_starts)), dtype=np.uint8)
        quantised = decode_block_payloads(residual_bytes, residual_lengths,
                                          coded_counts, block_size)
        matrix = quantisation_matrix(run_quality, block_size)
        residuals = idct2_blocks(
            dequantise_blocks(quantised[:, None], matrix))[:, 0]
        block_rows, block_cols = np.divmod(np.nonzero(coded)[1], blocks_x)
        bounds = [0, *np.cumsum(coded_counts).tolist()]
        no_sad = np.zeros((blocks_y, blocks_x))
        return [(MotionField(vectors[offset], no_sad, no_sad, block_size),
                 block_rows[first:last], block_cols[first:last],
                 residuals[first:last])
                for offset, (first, last) in enumerate(zip(bounds, bounds[1:]))]

    # ------------------------------------------------------------------ #
    # Video-level decoding
    # ------------------------------------------------------------------ #
    def iter_decoded_frames(self, encoded: EncodedVideo) -> Iterator[Frame]:
        """Yield fully decoded frames in presentation order.

        I-frames decode as still images.  The P-frames up to the next
        I-frame (or :data:`_RUN_BYTES`) are parsed together by
        :meth:`_parse_run`; only the recurrence — reference, prediction,
        plus residual, clip — runs frame by frame.  A run that fails to
        parse is parsed again as runs of one, lazily, so every frame before
        the first malformed one is still yielded and that frame raises its
        own error.
        """
        metadata = encoded.metadata
        height, width = metadata.resolution.shape
        block_size = encoded.parameters.block_size
        blocks_y, blocks_x = block_grid(height, width, block_size)
        reference: np.ndarray = None
        position, stop = 0, encoded.num_frames
        while position < stop:
            frame = encoded.frames[position]
            if frame.is_keyframe:
                plane = self.decode_keyframe(frame)
                reference = plane.astype(np.float64)
                yield Frame(index=frame.index, data=plane,
                            timestamp=metadata.timestamp_of(frame.index),
                            frame_type=frame.frame_type)
                position += 1
                continue
            if reference is None:
                raise DecodeError(
                    f"P-frame {frame.index} appears before any I-frame")
            run_bytes = 0
            run = []
            while (position < stop and run_bytes < _RUN_BYTES
                   and not encoded.frames[position].is_keyframe):
                run.append(encoded.frames[position])
                run_bytes += run[-1].size_bytes
                position += 1
            try:
                parsed = self._parse_run(encoded, run)
            except CodecError:
                if len(run) == 1:
                    raise
                parsed = (self._parse_run(encoded, [frame])[0] for frame in run)
            for frame, (field, block_rows, block_cols, residuals) in zip(
                    run, parsed):
                reference = motion_compensate(reference, field, (height, width))
                if block_rows.size:
                    residual = np.zeros(
                        (blocks_y, block_size, blocks_x, block_size))
                    residual[block_rows, :, block_cols] = residuals
                    residual = residual.reshape(blocks_y * block_size, -1)
                    reference = np.clip(
                        reference + residual[:height, :width], 0, 255)
                yield Frame(index=frame.index, data=reference.astype(np.uint8),
                            timestamp=metadata.timestamp_of(frame.index),
                            frame_type=frame.frame_type)

    def decode_video(self, encoded: EncodedVideo) -> RawVideo:
        """Decode every frame (the classical, expensive pipeline)."""
        frames = list(self.iter_decoded_frames(encoded))
        metadata = VideoMetadata(name=encoded.metadata.name,
                                 resolution=encoded.metadata.resolution,
                                 fps=encoded.metadata.fps,
                                 num_frames=len(frames),
                                 extra=dict(encoded.metadata.extra))
        return RawVideo(metadata, frames)

    def decode_keyframes(self, encoded: EncodedVideo) -> List[Frame]:
        """Decode only the I-frames, each as an independent still image.

        A frame without a payload is reported before anything is decoded.
        """
        keyframes = list(encoded.iter_keyframes())
        return [Frame(index=frame.index, data=plane,
                      timestamp=encoded.metadata.timestamp_of(frame.index),
                      frame_type=FrameType.I)
                for frame, plane in zip(keyframes,
                                        self._decode_stills(keyframes))]


def decode_video(encoded: EncodedVideo) -> RawVideo:
    """Module-level convenience wrapper around :class:`VideoDecoder`."""
    return VideoDecoder().decode_video(encoded)
