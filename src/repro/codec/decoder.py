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

The full-decode path works a *window* at a time: consecutive frames, I- and
P-frames alike, up to a payload-byte budget.  Parsing needs no reference
picture, so a window's stills are decoded in one batch and its P-frames
parsed in one pass — all headers validated, all bitmaps unpacked, all
residual payloads scanned (:func:`~repro.codec.entropy.decode_block_payloads`)
and all coded blocks inverse-transformed at once, into buffers the decoder
keeps.  Only the true recurrence (reference -> prediction -> + residual ->
clip) runs frame by frame, on a ``float64`` stack of block-padded rows the
decoder also keeps.  It streams window by window rather than staging a
whole clip.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CodecError, DecodeError
from ..video.frame import Frame, FrameType
from ..video.raw_video import RawVideo, VideoMetadata
from .bitstream import EncodedFrame, EncodedVideo
from .blocks import block_grid
from .encoder import _P_FRAME_HEADER, P_FRAME_MARKER
from .entropy import decode_block_payloads
from .jpeg import decode_images
from .transform import dct_matrix, dequantise_blocks, quantisation_matrix

#: Upper bound, in payload bytes, on the frames decoded as one window.  The
#: window's coded blocks stay staged as ``float64`` residuals until it is
#: reconstructed, so this bounds that working set however long the clip.
_WINDOW_BYTES = 1 << 15

#: Upper bound, in pixels, on the P-frames reconstructed together on the
#: kept stack (one scatter and one ``uint8`` cast each).  Sized apart from
#: the window: a stack for all of a window's P-frames decodes no faster and
#: holds megabytes more; one P-frame at a time pays the scatter and the cast
#: per frame (see README, "The read side").
_STACK_PIXELS = 1 << 16


class _Coefficients:
    """The ``float64`` coefficient buffer one decode keeps between windows.

    It grows to the largest window's coded blocks and is reused after that,
    so a window allocates none of its coefficient stages.  It lives for one
    decode: kept between calls, it would add a window's worth of resident
    memory to every later stage of the process.
    """

    def __init__(self) -> None:
        self._buffer = np.empty(0)

    def blocks(self, count: int, block_size: int) -> np.ndarray:
        """A ``(count, b, b)`` view, valid until the next call."""
        size = count * block_size * block_size
        if self._buffer.size < size:
            self._buffer = np.empty(size)
        return self._buffer[:size].reshape(count, block_size, block_size)


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

    def _parse_run(self, encoded: EncodedVideo, frames: Sequence[EncodedFrame],
                   coefficients: _Coefficients, scratch: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Parse consecutive P-frames into what their reconstruction needs.

        Parsing needs no reference picture, so the whole run is validated
        against the container, its bitmaps unpacked, its residual payloads
        scanned and its coded blocks inverse-transformed in one pass each.
        The checks come in the order a single frame meets them, so a run of
        one raises exactly that frame's first error; a longer run raises
        *some* error of a malformed frame and :meth:`iter_decoded_frames`
        parses it again frame by frame.  (So does a run whose frames change
        ``quality``, which the encoder never writes: a run shares one
        quantisation matrix.)

        Returns:
            ``(vectors, coded, residuals)``: the ``(frames, blocks_y,
            blocks_x, 2)`` motion vectors, the ``(frames, blocks)`` coded
            mask, and the decoded ``(b, b)`` residual of every coded block
            in frame then raster order — a view of ``coefficients``, valid
            until its next parse.  ``scratch``, ``(k, b, b)`` ``float64``
            blocks, holds the inverse transform's intermediate, ``k`` blocks
            at a time.
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
        residual_bytes = np.frombuffer(
            b"".join(payload[residual_start:] for payload, residual_start
                     in zip(payloads, residual_starts)), dtype=np.uint8)
        quantised = decode_block_payloads(residual_bytes, residual_lengths,
                                          coded_counts, block_size)
        residuals = dequantise_blocks(
            quantised, quantisation_matrix(run_quality, block_size),
            out=coefficients.blocks(len(quantised), block_size))
        # The inverse transform, ``M.T @ residuals @ M``, in place: the
        # first product goes to ``scratch``, ``len(scratch)`` blocks at a
        # time.  The same two products in the same order as idct2_blocks,
        # so the same bits.
        matrix = dct_matrix(block_size)
        for start in range(0, len(residuals), len(scratch)):
            blocks = residuals[start:start + len(scratch)]
            product = scratch[:len(blocks)]
            np.matmul(matrix.T, blocks, out=product)
            np.matmul(product, matrix, out=blocks)
        return (vectors.reshape(len(frames), blocks_y, blocks_x, 2), coded,
                residuals)

    # ------------------------------------------------------------------ #
    # Video-level decoding
    # ------------------------------------------------------------------ #
    def iter_decoded_frames(self, encoded: EncodedVideo) -> Iterator[Frame]:
        """Yield fully decoded frames in presentation order.

        Frames are decoded a window of :data:`_WINDOW_BYTES` at a time by
        :meth:`_decode_window`; only the recurrence runs frame by frame, in
        sub-batches of :data:`_STACK_PIXELS` on the kept stack.  A window
        that fails any check is decoded again lazily, frame by frame
        (stills one at a time, P-frames as runs of one), so every frame
        before the first malformed one is still yielded and that frame
        raises its own error.
        """
        frames = encoded.frames
        if frames and not frames[0].is_keyframe:
            raise DecodeError(
                f"P-frame {frames[0].index} appears before any I-frame")
        coefficients = _Coefficients()
        height, width = encoded.metadata.resolution.shape
        block_size = encoded.parameters.block_size
        blocks_y, blocks_x = block_grid(height, width, block_size)
        pixels = blocks_y * blocks_x * block_size * block_size
        # Row 0 is the reference, then one row per P-frame of a
        # sub-batch, then the row a motion-compensated prediction is
        # gathered into.
        stack = np.zeros((max(_STACK_PIXELS // pixels, 1) + 2, pixels))
        # Between windows only row 0 is live, so the rows after it are
        # the inverse transform's scratch while a window is parsed.
        scratch = stack[1:].reshape(-1, block_size, block_size)
        stop = 0
        while stop < len(frames):
            start, window_bytes = stop, 0
            while stop < len(frames) and window_bytes < _WINDOW_BYTES:
                window_bytes += frames[stop].size_bytes
                stop += 1
            window = frames[start:stop]
            try:
                decoded = self._reconstruct(
                    encoded, window, *self._decode_window(
                        encoded, window, coefficients, scratch), stack)
            except CodecError:
                if len(window) == 1:
                    raise
                decoded = (decoded_frame for frame in window
                           for decoded_frame in self._reconstruct(
                               encoded, [frame], *self._decode_window(
                                   encoded, [frame], coefficients, scratch),
                               stack))
            yield from decoded

    def _decode_window(self, encoded: EncodedVideo,
                       frames: Sequence[EncodedFrame],
                       coefficients: _Coefficients, scratch: np.ndarray
                       ) -> Tuple[List[np.ndarray], Optional[tuple]]:
        """The window's stills, in one batch, and its P-frames, parsed."""
        keyframes: List[EncodedFrame] = []
        predicted: List[EncodedFrame] = []
        for frame in frames:
            (keyframes if frame.is_keyframe else predicted).append(frame)
        stills = self._decode_stills(keyframes)
        shape = encoded.metadata.resolution.shape
        for frame, plane in zip(keyframes, stills):
            if plane.shape != shape:
                raise DecodeError(
                    f"I-frame {frame.index} decodes to a {plane.shape} plane, "
                    f"the stream's frames are {shape}")
        parsed = (self._parse_run(encoded, predicted, coefficients, scratch)
                  if predicted else None)
        return stills, parsed

    def _reconstruct(self, encoded: EncodedVideo,
                     frames: Sequence[EncodedFrame], stills: List[np.ndarray],
                     parsed: Optional[tuple], stack: np.ndarray) -> List[Frame]:
        """Run a decoded window's recurrence on the stack; its frames.

        Where every coded block's residual goes, and where every moving
        block's pixels go and come from, is worked out for the whole window
        at once; a sub-batch of the stack only slices it.
        """
        metadata = encoded.metadata
        height, width = metadata.resolution.shape
        block_size = encoded.parameters.block_size
        blocks_y, blocks_x = block_grid(height, width, block_size)
        padded_width = blocks_x * block_size
        if parsed is not None:
            vectors, coded, residuals = parsed
            coded_frame, coded_block = coded.nonzero()
            coded_y, coded_x = np.divmod(coded_block, blocks_x)
            has_coded = coded.any(axis=1)
            coded_bounds = [0, *coded.sum(axis=1).cumsum().tolist()]
            # A moving block reads its displaced pixels, clamped to the
            # picture's edge — the pixels motion_compensate's padded-window
            # gather reads; the rest of its frame is the reference.
            moved_frame, moved_y, moved_x = np.logical_or(
                vectors[..., 0], vectors[..., 1]).nonzero()
            shifts = vectors[moved_frame, moved_y, moved_x]
            pixel = np.arange(block_size)
            ys = (moved_y * block_size)[:, None] + pixel
            xs = (moved_x * block_size)[:, None] + pixel
            targets = ys[:, :, None] * padded_width + xs[:, None, :]
            sources = (np.clip(ys - shifts[:, :1], 0, height - 1)[:, :, None]
                       * padded_width
                       + np.clip(xs - shifts[:, 1:], 0, width - 1)[:, None, :])
            moved_bounds = [0, *np.bincount(moved_frame, minlength=len(vectors))
                            .cumsum().tolist()]
        stills = iter(stills)
        decoded: List[Frame] = []
        position = offset = 0
        while position < len(frames):
            frame = frames[position]
            if frame.is_keyframe:
                plane = next(stills)
                stack[0].reshape(-1, padded_width)[:height, :width] = plane
                decoded.append(Frame(
                    index=frame.index, data=plane,
                    timestamp=metadata.timestamp_of(frame.index),
                    frame_type=frame.frame_type))
                position += 1
                continue
            end = position + 1
            while (end < len(frames) and end - position < len(stack) - 2
                   and not frames[end].is_keyframe):
                end += 1
            count = end - position
            rows = stack[1:count + 1]
            # Residuals: the coded rows zeroed, every coded block scattered.
            first, last = coded_bounds[offset], coded_bounds[offset + count]
            if last > first:
                rows[has_coded[offset:offset + count]] = 0.0
                rows.reshape(count, blocks_y, block_size, blocks_x, block_size)[
                    coded_frame[first:last] - offset, coded_y[first:last], :,
                    coded_x[first:last]] = residuals[first:last]
            for row, index in enumerate(range(offset, offset + count), 1):
                reference, current = stack[row - 1], stack[row]
                has_residual = coded_bounds[index + 1] > coded_bounds[index]
                first, last = moved_bounds[index], moved_bounds[index + 1]
                if last > first:
                    predicted = stack[-1] if has_residual else current
                    predicted[:] = reference
                    predicted.put(targets[first:last],
                                  reference.take(sources[first:last]))
                    reference = predicted
                if has_residual:
                    np.add(reference, current, out=current)
                    current.clip(0, 255, out=current)
                elif last == first:
                    current[:] = reference
            planes = rows.reshape(count, -1, padded_width)[
                :, :height, :width].astype(np.uint8)
            stack[0] = stack[count]
            decoded += [Frame(index=frame.index, data=plane,
                              timestamp=metadata.timestamp_of(frame.index),
                              frame_type=frame.frame_type)
                        for frame, plane in zip(frames[position:end], planes)]
            position, offset = end, offset + count
        return decoded

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
