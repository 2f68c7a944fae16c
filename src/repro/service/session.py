"""Stream sessions: the unit of admission for the real-time service.

A *session* is one camera's live connection to the service.  Where the
batch :class:`~repro.cluster.fleet.FleetOrchestrator` receives each
camera's footage as a single pre-planned :class:`CameraJob`, a live camera
delivers the same work incrementally as a stream of :class:`FrameChunk`
pushes — a group-of-pictures worth of frames with its pro-rated compute
and transfer costs.  :func:`chunk_camera_job` slices a planned job into
such chunks *exactly* (frame, byte and second totals are preserved), which
is what lets the streaming service replay a fleet workload chunk-by-chunk
and still reconcile against the batch report.

Sessions are grouped under a :class:`TenantPolicy` — the per-customer
admission quota and default backpressure bound.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import List, Optional

from ..adapt.signals import ChunkScene
from ..codec.gop import EncoderParameters
from ..config import real_number, whole_number
from ..errors import ServiceError


class SessionState(enum.Enum):
    """Lifecycle of a stream session."""

    #: Admitted; accepts frame pushes.
    OPEN = "open"
    #: Close requested; no new pushes, in-flight chunks still completing.
    DRAINING = "draining"
    #: All in-flight work finished (or none existed) after a close.
    CLOSED = "closed"


@dataclass(frozen=True)
class FrameChunk:
    """One pushed unit of camera footage (roughly a group of pictures).

    Attributes:
        num_frames: Frames in the chunk (I and P).
        frames_for_inference: Frames that will undergo NN inference.
        edge_seconds: Compute seconds this chunk charges its edge server.
        cloud_seconds: Compute seconds charged to the cloud tier.
        camera_edge_bytes: Bytes moved camera -> edge (LAN).
        edge_cloud_bytes: Bytes moved edge -> cloud (WAN).
        scene: Optional per-chunk scene payload
            (:class:`~repro.adapt.signals.ChunkScene`) feeding the online
            drift detectors.  ``None`` (the default) keeps the chunk
            invisible to the adaptive controller — the seed path.
    """

    num_frames: int
    frames_for_inference: int
    edge_seconds: float
    cloud_seconds: float
    camera_edge_bytes: int
    edge_cloud_bytes: int
    scene: Optional[ChunkScene] = None

    def __post_init__(self) -> None:
        # Counts and bytes are stored as ``int`` and seconds as ``float``
        # (as ``CameraJob`` stores them), whatever real type they came in
        # as.  A bool, a fraction, nan and inf are refused here, before a
        # push counts the chunk and the link refuses its bytes.
        values = _chunk_values(self)
        if tuple(map(type, values)) != _CHUNK_TYPES:
            values = tuple(
                whole_number(value, name, ServiceError) if kind is int
                else float(real_number(value, name, ServiceError))
                for (name, kind), value in zip(_CHUNK_FIELDS, values))
            for (name, _), value in zip(_CHUNK_FIELDS, values):
                object.__setattr__(self, name, value)
        frames, inference, edge, cloud, lan, wan = values
        if frames < 0 or inference < 0:
            raise ServiceError("chunk frame counts must be >= 0")
        if not (0 <= edge < math.inf and 0 <= cloud < math.inf):
            raise ServiceError(
                "chunk compute seconds must be finite and >= 0")
        if not (0 <= lan < 2 ** 63 and 0 <= wan < 2 ** 63):
            raise ServiceError("chunk transfer bytes must be in [0, 2**63)")


#: The type each numeric :class:`FrameChunk` field is stored as.
_CHUNK_FIELDS = (("num_frames", int), ("frames_for_inference", int),
                 ("edge_seconds", float), ("cloud_seconds", float),
                 ("camera_edge_bytes", int), ("edge_cloud_bytes", int))
_CHUNK_TYPES = tuple(kind for _, kind in _CHUNK_FIELDS)
_chunk_values = attrgetter(*(name for name, _ in _CHUNK_FIELDS))


def _split_int(total: int, weights: List[float], parts: int) -> List[int]:
    """Split ``total`` into ``parts`` integers proportional to ``weights``.

    Cumulative-boundary rounding: part ``i`` gets
    ``round(total * cum_weight[i]) - round(total * cum_weight[i-1])``, so
    the parts always sum to exactly ``total`` and no part is negative.
    """
    weight_sum = sum(weights)
    if weight_sum <= 0:
        shares = [(index + 1) / parts for index in range(parts)]
    else:
        cumulative = 0.0
        shares = []
        for weight in weights:
            cumulative += weight
            shares.append(cumulative / weight_sum)
    boundaries = [int(round(total * share)) for share in shares]
    boundaries[-1] = total
    result = []
    previous = 0
    for boundary in boundaries:
        result.append(boundary - previous)
        previous = boundary
    return result


def chunk_camera_job(job, num_chunks: int) -> List[FrameChunk]:
    """Slice a planned :class:`~repro.cluster.fleet.CameraJob` into chunks.

    Frames are divided as evenly as possible (``divmod``); float costs are
    pro-rated by each chunk's frame share; integer byte totals are split on
    cumulative boundaries.  Summing any field across the returned chunks
    reproduces the job's total exactly (floats to rounding error), which the
    streaming example relies on to reconcile against the batch fleet report.
    """
    num_chunks = whole_number(num_chunks, "num_chunks", ServiceError, 1)
    base, remainder = divmod(job.num_frames, num_chunks)
    frame_counts = [base + (1 if index < remainder else 0)
                    for index in range(num_chunks)]
    # Frame-share weights; a zero-frame job falls back to uniform shares.
    weights = [float(count) for count in frame_counts]
    inference_counts = _split_int(job.frames_for_inference, weights, num_chunks)
    lan_bytes = _split_int(job.camera_edge_bytes, weights, num_chunks)
    wan_bytes = _split_int(job.edge_cloud_bytes, weights, num_chunks)
    total_frames = max(job.num_frames, 1)
    chunks = []
    for index in range(num_chunks):
        share = (frame_counts[index] / total_frames
                 if job.num_frames > 0 else 1.0 / num_chunks)
        chunks.append(FrameChunk(
            num_frames=frame_counts[index],
            frames_for_inference=inference_counts[index],
            edge_seconds=job.edge_seconds * share,
            cloud_seconds=job.cloud_seconds * share,
            camera_edge_bytes=lan_bytes[index],
            edge_cloud_bytes=wan_bytes[index],
        ))
    return chunks


@dataclass(frozen=True)
class TenantPolicy:
    """Admission quota and backpressure bound for one tenant.

    Attributes:
        name: Tenant identifier (a non-empty ``str``).
        max_sessions: Concurrent sessions this tenant may hold open.
        max_pending_chunks: Default per-session backpressure bound — the
            number of in-flight (pushed, not yet completed) chunks a session
            tolerates before pushes raise
            :class:`~repro.errors.BackpressureError`.
    """

    name: str
    max_sessions: int = 16
    max_pending_chunks: int = 8

    def __post_init__(self) -> None:
        # Names key the status JSON, whose sort_keys cannot order 7 and
        # "default".
        if not isinstance(self.name, str) or not self.name:
            raise ServiceError(
                f"tenant name must be a non-empty str, got {self.name!r}")
        for name in ("max_sessions", "max_pending_chunks"):
            object.__setattr__(self, name,
                               whole_number(getattr(self, name), name,
                                            ServiceError, 1))


@dataclass
class StreamSession:
    """Live state of one admitted camera stream.

    Attributes:
        session_id: Unique session identifier (the camera name).
        camera: Camera name.
        tenant: Owning tenant's name.
        edge_index: Edge server the session's stream is placed on.
        opened_at: Virtual time the session was admitted.
        max_pending_chunks: Current backpressure bound (retunable live).
        state: Lifecycle state.
        frames_pushed: Total frames pushed so far.
        frames_for_inference: Total inference frames pushed so far.
        chunks_pushed: Chunks accepted by ``push_frames``.
        chunks_completed: Chunks whose cloud inference finished.
        in_flight: ``chunks_pushed - chunks_completed``.
        edge_seconds_pushed: Edge compute seconds submitted so far.
        cloud_seconds_pushed: Cloud compute seconds submitted so far.
        camera_edge_bytes_pushed: LAN bytes submitted so far.
        edge_cloud_bytes_pushed: WAN bytes submitted so far.
        first_arrival: Virtual time the first chunk was pushed (``nan``
            until then).
        last_completion: Virtual time of the latest chunk completion
            (``nan`` until the first one).
        chunk_latencies: Push-to-completion latency of every finished
            chunk, as packed doubles (8 bytes a chunk).
        closed_at: Virtual time the session reached ``CLOSED`` (``nan``
            while open or draining).
        chunks_failed: Chunks lost for good by the fault plane (always 0
            on the fault-free path).
        last_push: Virtual time of the latest accepted push (``nan``
            until the first one); feeds the stall watchdog.
        close_reason: Why the session was closed ("" while open;
            "client", "completed", "stalled", "backpressure", ...).
        parameters: Encoder parameters currently deployed on the camera
            (``None`` until the first parameter retune — the seed never
            sets them).
        parameter_version: Number of parameter retunes applied so far
            (``0`` on the seed path).
    """

    session_id: str
    camera: str
    tenant: str
    edge_index: int
    opened_at: float
    max_pending_chunks: int
    state: SessionState = SessionState.OPEN
    frames_pushed: int = 0
    frames_for_inference: int = 0
    chunks_pushed: int = 0
    chunks_completed: int = 0
    edge_seconds_pushed: float = 0.0
    cloud_seconds_pushed: float = 0.0
    camera_edge_bytes_pushed: int = 0
    edge_cloud_bytes_pushed: int = 0
    first_arrival: float = float("nan")
    last_completion: float = float("nan")
    chunk_latencies: array = field(default_factory=partial(array, "d"))
    closed_at: float = float("nan")
    chunks_failed: int = 0
    last_push: float = float("nan")
    close_reason: str = ""
    parameters: Optional[EncoderParameters] = None
    parameter_version: int = 0

    @property
    def in_flight(self) -> int:
        """Chunks pushed but neither completed nor failed out."""
        return self.chunks_pushed - self.chunks_completed - self.chunks_failed

    @property
    def is_open(self) -> bool:
        """Whether the session still accepts frame pushes."""
        return self.state is SessionState.OPEN

    def last_progress(self, default: float = 0.0) -> float:
        """Latest instant the session demonstrably made progress.

        The max of open, last accepted push and last completion times —
        the stall watchdog compares this against the clock.
        """
        progress = default
        for candidate in (self.opened_at, self.last_push,
                          self.last_completion):
            if candidate == candidate and candidate > progress:
                progress = candidate
        return progress
