"""Oracles of the analysis pass and of the encode, with the clips they run on.

``OracleAnalyzer`` carries the bodies ``SceneCutAnalyzer`` had before
``uint8`` frames were analysed in frame batches with a 2-byte accumulator:
``analyze_video`` converts every frame to float64 luma and calls
``analyze_next``, which calls ``analyze_pair`` — one float64
``MotionSearch`` and one ``motion_compensate`` per frame.  Its novelty
threshold and count are parameters, as they were there.  A colour frame is
analysed on its BT.601 luma rounded to ``uint8`` (:func:`analysed_luma`),
the plane the pass itself analyses.

``live_encode`` is the frame-at-a-time loop ``VideoEncoder.encode`` ran
when no lookahead pass was given: each frame analysed as it arrived and
its type decided by ``StreamingKeyframePlacer``.  ``encode`` now always
places from a whole-clip pass with ``KeyframePlacer``'s closed form, and
must give the same encode.  Its P-frames are coded by
:func:`encode_predicted`, the per-frame body the encoder had before its
frame loop kept only the closed loop: a ``MotionSearch`` call with the
frame pair's own bounds, a one-shot ``motion_compensate``, and the frame
sized (or packed) on its own.
"""

import numpy as np

from repro.codec.bitstream import EncodedFrame, EncodedVideo
from repro.codec.blocks import crop_plane, from_blocks, pad_plane, to_blocks
from repro.codec.encoder import (_P_FRAME_HEADER, P_FRAME_DEADZONE,
                                 P_FRAME_MARKER)
from repro.codec.entropy import encode_blocks, encoded_size_bytes
from repro.codec.gop import StreamingKeyframePlacer
from repro.codec.motion import MotionSearch, motion_compensate
from repro.codec.scenecut import FrameActivity, scenecut_novelty_floor
from repro.codec.transform import (dct2_blocks, dequantise_blocks,
                                   idct2_blocks, quantise_blocks)
from repro.video.frame import Frame, FrameType, Resolution
from repro.video.raw_video import RawVideo, VideoMetadata


def is_scenecut(activity, scenecut):
    """Whether ``activity`` crosses the scene-cut decision for ``scenecut``."""
    if activity.is_first:
        return True
    return activity.novel_block_fraction > scenecut_novelty_floor(scenecut)


# --------------------------------------------------------------------- #
# The analysis oracle: the per-frame float64 pass, bodies verbatim in behaviour
# --------------------------------------------------------------------- #
def analysed_luma(frame):
    """The plane the analysis pass sees: a grayscale frame as it is, a
    colour frame's float luma rounded once to ``uint8``."""
    if frame.data.ndim == 2:
        return frame.data
    return np.rint(frame.to_grayscale()).astype(np.uint8)


class OracleAnalyzer:
    def __init__(self, block_size=8, search_radius=2, search_step=1,
                 novel_pixel_threshold=25.0, novel_pixel_count=4):
        self.block_size = block_size
        self.novel_pixel_threshold = float(novel_pixel_threshold)
        self.novel_pixel_count = int(novel_pixel_count)
        self._search = MotionSearch(block_size, search_radius, search_step)
        self._previous = None
        self._frame_index = 0

    def analyze_pair(self, previous, current, frame_index):
        previous = np.asarray(previous, dtype=np.float64)
        current = np.asarray(current, dtype=np.float64)
        field = self._search(previous, current)
        prediction = motion_compensate(previous, field, current.shape)
        residual = np.abs(current - prediction)
        residual_blocks = to_blocks(pad_plane(residual, self.block_size),
                                    self.block_size)
        novel_pixels = (residual_blocks > self.novel_pixel_threshold).sum(axis=(2, 3))
        novel_blocks = novel_pixels >= self.novel_pixel_count
        return FrameActivity(frame_index=frame_index,
                             novel_block_fraction=float(novel_blocks.mean()))

    def analyze_next(self, luma):
        luma = np.asarray(luma, dtype=np.float64)
        index = self._frame_index
        if self._previous is None:
            activity = FrameActivity(frame_index=index,
                                     novel_block_fraction=1.0, is_first=True)
        else:
            activity = self.analyze_pair(self._previous, luma, index)
        self._previous = luma
        self._frame_index += 1
        return activity

    def analyze_video(self, video):
        self._previous = None
        self._frame_index = 0
        return [self.analyze_next(analysed_luma(frame))
                for frame in video.frames()]


# --------------------------------------------------------------------- #
# The encode oracle: the live loop, analysing and deciding frame by frame
# --------------------------------------------------------------------- #
def encode_predicted(encoder, search, reference, luma, materialise):
    """One P-frame against ``reference``: (payload or None, size, recon)."""
    block_size = encoder.parameters.block_size
    field = search(reference, luma)
    prediction = motion_compensate(reference, field, luma.shape)
    matrix = encoder._matrix
    quantised = quantise_blocks(dct2_blocks(to_blocks(
        pad_plane(luma - prediction, block_size), block_size)), matrix)
    quantised[np.abs(quantised) <= P_FRAME_DEADZONE] = 0
    blocks_y, blocks_x = quantised.shape[:2]
    moving = (field.vectors != 0).any(axis=2)
    coded = (quantised != 0).any(axis=(2, 3))
    coded_blocks = quantised[coded][:, None, :, :]
    if materialise:
        residual_payload = (encode_blocks(coded_blocks)
                            if coded_blocks.shape[0] else b"")
        header = _P_FRAME_HEADER.pack(P_FRAME_MARKER, block_size,
                                      encoder.parameters.quality, blocks_y,
                                      blocks_x, len(residual_payload))
        payload = (header + np.packbits(moving.ravel()).tobytes()
                   + np.packbits(coded.ravel()).tobytes()
                   + field.vectors[moving].astype(np.int8).tobytes()
                   + residual_payload)
        size = len(payload)
    else:
        payload = None
        residual_size = (encoded_size_bytes(coded_blocks)
                         if coded_blocks.shape[0] else 0)
        size = (_P_FRAME_HEADER.size + 2 * (-(-moving.size // 8))
                + 2 * int(moving.sum()) + residual_size)
    residual = crop_plane(from_blocks(idct2_blocks(
        dequantise_blocks(quantised, matrix))), luma.shape[0], luma.shape[1])
    return payload, size, np.clip(prediction + residual, 0, 255)


def live_encode(encoder, video, materialise_payload):
    """``encoder``'s encode of ``video`` as the live loop computed it."""
    parameters = encoder.parameters
    analyzer = OracleAnalyzer(parameters.block_size, parameters.search_radius)
    placer = StreamingKeyframePlacer(parameters)
    search = MotionSearch(parameters.block_size, parameters.search_radius)
    encoded_frames = []
    reference = None
    for frame in video.frames():
        luma = frame.to_grayscale()
        activity = analyzer.analyze_next(analysed_luma(frame))
        frame_type = placer.decide(activity)
        if frame_type is FrameType.I:
            payload, size, reconstruction = encoder._encode_keyframe(
                luma, materialise_payload)
        else:
            payload, size, reconstruction = encode_predicted(
                encoder, search, reference, luma, materialise_payload)
        reference = reconstruction
        encoded_frames.append(EncodedFrame(
            index=frame.index, frame_type=frame_type, size_bytes=size,
            payload=payload,
            novel_block_fraction=activity.novel_block_fraction))
    return EncodedVideo(video.metadata, parameters, encoded_frames)


# --------------------------------------------------------------------- #
# Clips
# --------------------------------------------------------------------- #

#: What the frames hold: noise; one constant for the whole clip (every
#: candidate ties at 0); a new constant per frame (every candidate ties at
#: the same non-zero SAD); 0/255 only (the largest SADs and residuals); a
#: textured background panning by whole pixels under sensor noise, with a
#: bright object entering (the motion and novelty the pass exists for).
KINDS = ("noise", "constant", "ties", "saturated", "pan")


def render(kind, seed, length, height, width):
    """``length`` uint8 frames of one clip."""
    rng = np.random.default_rng(seed)
    shape = (length, height, width)
    if kind == "noise":
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    if kind == "constant":
        return np.full(shape, rng.integers(0, 256), dtype=np.uint8)
    if kind == "ties":
        return np.broadcast_to(rng.integers(0, 256, size=(length, 1, 1)),
                               shape).astype(np.uint8)
    if kind == "saturated":
        return (rng.integers(0, 2, size=shape) * 255).astype(np.uint8)
    margin = 4
    background = rng.integers(40, 200, size=(height + 2 * margin,
                                             width + 2 * margin))
    frames = []
    dy = dx = 0
    for index in range(length):
        dy = int(np.clip(dy + rng.integers(-1, 2), -margin, margin))
        dx = int(np.clip(dx + rng.integers(-1, 2), -margin, margin))
        frame = background[margin + dy:margin + dy + height,
                           margin + dx:margin + dx + width].astype(np.float64)
        frame += rng.normal(0.0, 2.0, size=frame.shape)
        if index >= length // 2:
            top, left = rng.integers(0, height), rng.integers(0, width)
            frame[top:top + 6, left:left + 9] += 90.0
        frames.append(np.clip(frame, 0, 255))
    return np.stack(frames).astype(np.uint8)


def colour(gray):
    """RGB frames whose channels are three different views of ``gray``."""
    return np.stack([gray, gray[:, ::-1, ::-1], 255 - gray], axis=-1)


def video_of(frames):
    """A ``RawVideo`` over ``frames`` (uint8 grayscale or RGB)."""
    height, width = frames[0].shape[:2]
    return RawVideo(
        VideoMetadata(name="clip", resolution=Resolution(width, height),
                      fps=30.0, num_frames=len(frames)),
        [Frame(index=index, data=data) for index, data in enumerate(frames)])
