"""The semantic video codec substrate.

This package implements the video-coding machinery SiEVE tunes and exploits:
block transforms, motion estimation, scene-cut analysis, GOP control, I/P
encoding, a metadata-indexed container, and the I-frame seeker.
"""

from .bitstream import (EncodedFrame, EncodedVideo, FrameIndexEntry,
                        read_frame_index)
from .blocks import DEFAULT_BLOCK_SIZE, block_grid, from_blocks, pad_plane, to_blocks
from .decoder import VideoDecoder, decode_video
from .encoder import VideoEncoder
from .entropy import (decode_block_payloads, decode_blocks, encode_blocks,
                      encoded_size_bytes)
from .gop import (DEFAULT_GOP_SIZE, DEFAULT_PARAMETERS, DEFAULT_SCENECUT,
                  ActivityColumns, EncoderParameters, KeyframePlacer,
                  StreamingKeyframePlacer)
from .iframe_seeker import IFrameSeeker, SeekResult, select_events_from_keyframes
from .jpeg import decode_image, decode_images, encode_image, estimate_encoded_size
from .motion import MotionField, estimate_motion, motion_compensate
from .scenecut import (FrameActivity, SceneCutAnalyzer, is_scenecut,
                       scenecut_novelty_floor, scenecut_score_threshold)
from .transform import (dct2_blocks, idct2_blocks, quantisation_matrix,
                        quantise_blocks, dequantise_blocks)

__all__ = [
    "EncodedFrame", "EncodedVideo", "FrameIndexEntry", "read_frame_index",
    "DEFAULT_BLOCK_SIZE", "block_grid", "from_blocks",
    "pad_plane", "to_blocks",
    "VideoDecoder", "decode_video",
    "VideoEncoder",
    "decode_block_payloads", "decode_blocks", "encode_blocks",
    "encoded_size_bytes",
    "DEFAULT_GOP_SIZE", "DEFAULT_PARAMETERS", "DEFAULT_SCENECUT",
    "ActivityColumns", "EncoderParameters", "KeyframePlacer",
    "StreamingKeyframePlacer",
    "IFrameSeeker", "SeekResult", "select_events_from_keyframes",
    "decode_image", "decode_images", "encode_image", "estimate_encoded_size",
    "MotionField", "estimate_motion", "motion_compensate",
    "FrameActivity", "SceneCutAnalyzer", "is_scenecut",
    "scenecut_novelty_floor", "scenecut_score_threshold",
    "dct2_blocks", "idct2_blocks", "quantisation_matrix", "quantise_blocks",
    "dequantise_blocks",
]
