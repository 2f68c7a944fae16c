"""Encoded-video container format.

The container mirrors the property of real video containers (MP4/MKV + H.264)
that SiEVE's I-frame seeker exploits: *frame type and size live in metadata
that can be read without touching, let alone decoding, the frame payloads.*

Layout of a serialised container::

    +---------+----------------+---------------------+------------------+
    | header  | JSON metadata  | frame index table   | frame payloads   |
    +---------+----------------+---------------------+------------------+

* header: magic, version, metadata length, frame count;
* metadata: video name/resolution/fps plus the encoder parameters;
* index table: one fixed-size record per frame — frame type, payload offset,
  payload size;
* payloads: the per-frame encoded bytes (may be empty when the video was
  encoded in size-only mode).

:func:`read_frame_index` parses only the header and the index table, which is
exactly what the I-frame seeker does.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import BitstreamError, ConfigurationError
from ..video.frame import FrameType, Resolution
from ..video.raw_video import VideoMetadata
from .gop import EncoderParameters

_MAGIC = b"SIEV"
_VERSION = 1
_HEADER = struct.Struct(">4sBII")          # magic, version, metadata len, num frames
_INDEX_RECORD = struct.Struct(">BQI")      # frame type, payload offset, payload size

_FRAME_TYPE_CODES = {FrameType.I: 0, FrameType.P: 1, FrameType.B: 2}
_CODE_FRAME_TYPES = {code: frame_type for frame_type, code in _FRAME_TYPE_CODES.items()}


@dataclass
class EncodedFrame:
    """One encoded picture.

    Attributes:
        index: Frame index in presentation order.
        frame_type: I or P.
        size_bytes: Encoded payload size.  Always populated, even when the
            payload itself was not materialised (size-only encoding).
        payload: The encoded bytes, or ``None`` in size-only mode.
        novel_block_fraction: The scene-cut novelty score recorded by the
            encoder (useful for diagnostics and ablations).
    """

    index: int
    frame_type: FrameType
    size_bytes: int
    payload: Optional[bytes] = None
    novel_block_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError("frame index must be >= 0")
        if self.size_bytes < 0:
            raise ConfigurationError("size_bytes must be >= 0")
        if self.payload is not None and len(self.payload) != self.size_bytes:
            raise ConfigurationError(
                f"payload length {len(self.payload)} != size_bytes {self.size_bytes}")

    @property
    def is_keyframe(self) -> bool:
        """Whether this is an independently decodable I-frame."""
        return self.frame_type is FrameType.I


@dataclass
class FrameIndexEntry:
    """Metadata-only view of one frame, as read by the I-frame seeker."""

    index: int
    frame_type: FrameType
    payload_offset: int
    size_bytes: int

    @property
    def is_keyframe(self) -> bool:
        """Whether the entry describes an I-frame."""
        return self.frame_type is FrameType.I


class EncodedVideo:
    """A fully encoded video: metadata, encoder parameters and frames."""

    def __init__(self, metadata: VideoMetadata, parameters: EncoderParameters,
                 frames: Sequence[EncodedFrame],
                 analysis: Optional[dict] = None) -> None:
        frames = list(frames)
        if len(frames) != metadata.num_frames:
            raise ConfigurationError(
                f"metadata says {metadata.num_frames} frames, got {len(frames)}")
        for position, frame in enumerate(frames):
            if frame.index != position:
                raise ConfigurationError(
                    f"frame at position {position} has index {frame.index}")
        if frames and frames[0].frame_type is not FrameType.I:
            raise ConfigurationError("the first frame of an encoded video must be an I-frame")
        self.metadata = metadata
        self.parameters = parameters
        self.frames = frames
        self.analysis = dict(analysis or {})

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_frames(self) -> int:
        """Total number of frames."""
        return len(self.frames)

    @property
    def keyframe_indices(self) -> List[int]:
        """Indices of all I-frames."""
        return [frame.index for frame in self.frames if frame.is_keyframe]

    @property
    def num_keyframes(self) -> int:
        """Number of I-frames."""
        return len(self.keyframe_indices)

    @property
    def sampling_fraction(self) -> float:
        """Fraction of frames that are I-frames (paper's sample size *SS*)."""
        if not self.frames:
            return 0.0
        return self.num_keyframes / len(self.frames)

    @property
    def total_size_bytes(self) -> int:
        """Total encoded size (payloads only, container overhead excluded)."""
        return sum(frame.size_bytes for frame in self.frames)

    @property
    def keyframe_size_bytes(self) -> int:
        """Total size of the I-frame payloads."""
        return sum(frame.size_bytes for frame in self.frames if frame.is_keyframe)

    def frame_types(self) -> List[FrameType]:
        """Frame types in presentation order."""
        return [frame.frame_type for frame in self.frames]

    def iter_keyframes(self) -> Iterator[EncodedFrame]:
        """Iterate over I-frames only."""
        return (frame for frame in self.frames if frame.is_keyframe)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def _metadata_json(self) -> bytes:
        payload = {
            "name": self.metadata.name,
            "width": self.metadata.resolution.width,
            "height": self.metadata.resolution.height,
            "fps": self.metadata.fps,
            "num_frames": self.metadata.num_frames,
            "parameters": {
                "gop_size": self.parameters.gop_size,
                "scenecut_threshold": self.parameters.scenecut_threshold,
                "min_gop_size": self.parameters.min_gop_size,
                "quality": self.parameters.quality,
                "block_size": self.parameters.block_size,
                "search_radius": self.parameters.search_radius,
            },
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    def serialize(self) -> bytes:
        """Serialise the container (frames without payloads store empty bytes)."""
        metadata_blob = self._metadata_json()
        header = _HEADER.pack(_MAGIC, _VERSION, len(metadata_blob), len(self.frames))
        index_records = []
        payloads = []
        offset = 0
        for frame in self.frames:
            payload = frame.payload if frame.payload is not None else b""
            index_records.append(_INDEX_RECORD.pack(
                _FRAME_TYPE_CODES[frame.frame_type], offset, len(payload)))
            payloads.append(payload)
            offset += len(payload)
        return b"".join([header, metadata_blob, *index_records, *payloads])

    @classmethod
    def deserialize(cls, data: bytes) -> "EncodedVideo":
        """Parse a serialised container back into an :class:`EncodedVideo`."""
        metadata, parameters, entries, payload_base = _parse_container(data)
        frames = []
        for entry in entries:
            start = payload_base + entry.payload_offset
            stop = start + entry.size_bytes
            if stop > len(data):
                raise BitstreamError(f"payload of frame {entry.index} is truncated")
            payload = data[start:stop] if entry.size_bytes else None
            frames.append(EncodedFrame(index=entry.index, frame_type=entry.frame_type,
                                       size_bytes=entry.size_bytes, payload=payload))
        return cls(metadata, parameters, frames)


def _parse_container(data: bytes) -> Tuple[VideoMetadata, EncoderParameters,
                                           List[FrameIndexEntry], int]:
    if len(data) < _HEADER.size:
        raise BitstreamError("container too short for header")
    magic, version, metadata_length, num_frames = _HEADER.unpack(data[:_HEADER.size])
    if magic != _MAGIC:
        raise BitstreamError(f"bad container magic {magic!r}")
    if version != _VERSION:
        raise BitstreamError(f"unsupported container version {version}")
    metadata_start = _HEADER.size
    metadata_stop = metadata_start + metadata_length
    index_stop = metadata_stop + num_frames * _INDEX_RECORD.size
    if len(data) < index_stop:
        raise BitstreamError("container truncated before the frame index")
    try:
        metadata_payload = json.loads(data[metadata_start:metadata_stop].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BitstreamError("container metadata is not valid JSON") from exc
    try:
        metadata = VideoMetadata(
            name=metadata_payload["name"],
            resolution=Resolution(metadata_payload["width"], metadata_payload["height"]),
            fps=metadata_payload["fps"],
            num_frames=metadata_payload["num_frames"],
        )
        raw_parameters = metadata_payload["parameters"]
        parameters = EncoderParameters(**raw_parameters)
    except (KeyError, TypeError) as exc:
        raise BitstreamError("container metadata is missing required fields") from exc
    if metadata.num_frames != num_frames:
        raise BitstreamError("metadata frame count disagrees with the header")
    entries = []
    for position, (code, offset, size) in enumerate(
            _INDEX_RECORD.iter_unpack(data[metadata_stop:index_stop])):
        if code not in _CODE_FRAME_TYPES:
            raise BitstreamError(f"unknown frame type code {code}")
        entries.append(FrameIndexEntry(index=position,
                                       frame_type=_CODE_FRAME_TYPES[code],
                                       payload_offset=offset, size_bytes=size))
    return metadata, parameters, entries, index_stop


def read_frame_index(data: bytes) -> Tuple[VideoMetadata, List[FrameIndexEntry]]:
    """Read only the metadata and the frame index of a serialised container.

    This is the operation the I-frame seeker performs: no payload bytes are
    touched, so the cost is proportional to the number of frames, not to the
    video size.
    """
    metadata, _, entries, _ = _parse_container(data)
    return metadata, entries
