"""Real-time streaming service layer over the discrete-event engine.

The batch simulator (:mod:`repro.cluster`) drains a
pre-planned workload as fast as Python allows.  This package runs the same
engine as a *service*: a clock driver paces events against wall time, an
ingest front end admits per-camera stream sessions with backpressure, a
status endpoint serves live health snapshots, and the finished streams
reconcile — bit-for-bit — against a virtual-clock run of the same workload
through the existing :meth:`FleetReport.parity_mismatches` contract.

See ``examples/streaming_service.py`` for the end-to-end demonstration.
"""

from .clock import ClockDriver, RealTimeClock, VirtualClock
from .feeder import ChunkFeeder
from .ingest import StreamIngest
from .scenario_feed import ClipAnalysis, analyse_scenario, chunk_analysis
from .service import StreamingService
from .session import (FrameChunk, SessionState, StreamSession, TenantPolicy,
                      chunk_camera_job)
from .status import (HealthSample, ServiceStatus, SessionSnapshot,
                     StationSnapshot, snapshot_sessions, snapshot_station)

__all__ = [
    "ClockDriver", "RealTimeClock", "VirtualClock",
    "ChunkFeeder",
    "StreamIngest",
    "StreamingService",
    "ClipAnalysis", "analyse_scenario", "chunk_analysis",
    "FrameChunk", "SessionState", "StreamSession", "TenantPolicy",
    "chunk_camera_job",
    "HealthSample", "ServiceStatus", "SessionSnapshot", "StationSnapshot",
    "snapshot_sessions", "snapshot_station",
]
