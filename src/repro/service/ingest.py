"""Stream ingest: admission control and backpressure for live sessions.

:class:`StreamIngest` is the service's front door.  It decides which
camera streams get in (:meth:`open_session`), polices how fast each one
may push (:meth:`push_frames`), and tracks the session lifecycle through
draining and close.  It deliberately knows nothing about stations, links
or clocks — the owning :class:`~repro.service.service.StreamingService`
injects two callables (attach a session's uplink, submit a chunk), so
admission logic stays unit-testable with stubs.

Admission is refused (:class:`~repro.errors.AdmissionError`) when the
service-wide session cap is hit, the tenant is unknown, the tenant's own
quota is exhausted, or a pinned edge is not a whole number in range or is
offline.  A refusal is final: no other tenant's policy is tried in its
place.  Accepted sessions are placed round-robin across edge servers
unless the caller pins one.

Backpressure is per-session and live-tunable: a push that would exceed the
session's ``max_pending_chunks`` in-flight bound raises
:class:`~repro.errors.BackpressureError` — the caller (e.g.
:class:`~repro.service.feeder.ChunkFeeder`) is expected to retry later
rather than have the service queue unboundedly.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..codec.gop import EncoderParameters
from ..config import whole_number
from ..errors import AdmissionError, BackpressureError, ServiceError
from .session import FrameChunk, SessionState, StreamSession, TenantPolicy


class StreamIngest:
    """Admission control and per-session backpressure.

    Args:
        scheduler: The service's event scheduler (read for timestamps only).
        num_edge_servers: Edge servers available for placement.
        attach_session: Callback invoked with a newly admitted
            :class:`StreamSession` so the service can build its uplink.
        submit_chunk: Callback ``(session, chunk) -> None`` that injects an
            accepted chunk into the service pipeline.
        max_sessions: Service-wide concurrent session cap.
        tenants: Initial tenant policies.  A ``"default"`` tenant is
            registered automatically if absent.
        push_gate: Optional callback ``(edge_index) -> Optional[str]``
            consulted last on every push; a non-``None`` refusal reason
            (offline edge, open circuit breaker) bounces the push as
            :class:`BackpressureError` so feeders retry later.
        edge_available: Optional callback ``(edge_index) -> bool``;
            round-robin placement skips unavailable edges and pinned
            placement onto one is refused.
    """

    def __init__(self, scheduler, num_edge_servers: int,
                 attach_session: Callable[[StreamSession], None],
                 submit_chunk: Callable[[StreamSession, FrameChunk], None],
                 max_sessions: int = 64,
                 tenants: Sequence[TenantPolicy] = (),
                 push_gate: Optional[Callable[[int], Optional[str]]] = None,
                 edge_available: Optional[Callable[[int], bool]] = None
                 ) -> None:
        self._scheduler = scheduler
        self.num_edge_servers = whole_number(
            num_edge_servers, "num_edge_servers", ServiceError, 1)
        self._attach_session = attach_session
        self._submit_chunk = submit_chunk
        self.max_sessions = whole_number(max_sessions, "max_sessions",
                                         ServiceError, 1)
        self.tenants: Dict[str, TenantPolicy] = {}
        for policy in tenants:
            self.tenants[policy.name] = policy
        if "default" not in self.tenants:
            self.tenants["default"] = TenantPolicy(name="default")
        self._push_gate = push_gate
        self._edge_available = edge_available
        #: All sessions ever admitted, in admission order, by session id.
        self.sessions: Dict[str, StreamSession] = {}
        # Sessions open or draining, service-wide and by tenant: kept at
        # admission and close, so an admission reads them in O(1).
        self._active = 0
        self._active_of: Dict[str, int] = {}
        self._placement_counter = 0
        #: Pushes refused with BackpressureError (monotonic counter).
        self.pushes_rejected = 0
        #: Sessions refused with AdmissionError (monotonic counter).
        self.sessions_rejected = 0
        #: Close-reason histogram ("client", "completed", "stalled", ...).
        self.close_reasons: Dict[str, int] = {}
        #: Optional observer ``(session, chunk, now)`` fired after every
        #: *accepted* push whose chunk carries a scene payload (the adaptive
        #: controller's feed).  A retune it triggers changes the session's
        #: parameters only: no chunk's cost reads them, so the run's
        #: timelines are the same with or without it.
        self.on_chunk_scene: Optional[
            Callable[[StreamSession, FrameChunk, float], None]] = None

    # ------------------------------------------------------------------ #
    # Tenants
    # ------------------------------------------------------------------ #
    def register_tenant(self, policy: TenantPolicy) -> None:
        """Add or replace a tenant policy.

        Replacing a policy is graceful: existing sessions keep their
        current placement, uplinks and backpressure bounds; only future
        admissions and pushes see the new quota.
        """
        self.tenants[policy.name] = policy

    def active_sessions_of(self, tenant: str) -> int:
        """Sessions of ``tenant`` currently open or draining."""
        return self._active_of.get(tenant, 0)

    @property
    def active_sessions(self) -> int:
        """Sessions currently open or draining, across all tenants."""
        return self._active

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #
    def open_session(self, camera: str, tenant: str = "default",
                     edge_index: Optional[int] = None) -> StreamSession:
        """Admit a camera stream, or raise :class:`AdmissionError` (counted
        in :attr:`sessions_rejected`)."""
        try:
            return self._admit(camera, tenant, edge_index)
        except AdmissionError:
            self.sessions_rejected += 1
            raise

    def _admit(self, camera: str, tenant: str,
               edge_index: Optional[int]) -> StreamSession:
        """One admission under the tenant's policy."""
        if camera in self.sessions and (
                self.sessions[camera].state is not SessionState.CLOSED):
            raise AdmissionError(
                f"camera {camera!r} already has an active session")
        if self.active_sessions >= self.max_sessions:
            raise AdmissionError(
                f"service is full ({self.max_sessions} sessions)")
        policy = self.tenants.get(tenant)
        if policy is None:
            raise AdmissionError(f"unknown tenant {tenant!r}")
        if self.active_sessions_of(tenant) >= policy.max_sessions:
            raise AdmissionError(
                f"tenant {tenant!r} is at its session quota "
                f"({policy.max_sessions})")
        if edge_index is None:
            # Round-robin over the healthy edges: each candidate consumes
            # one counter tick, so with every edge healthy (the fault-free
            # default) this is exactly the seed's single increment.
            for _ in range(self.num_edge_servers):
                candidate = self._placement_counter % self.num_edge_servers
                self._placement_counter += 1
                if (self._edge_available is None
                        or self._edge_available(candidate)):
                    edge_index = candidate
                    break
            else:
                raise AdmissionError("no healthy edge server available")
        else:
            # A session's edge indexes the chain's lists, so it is a whole
            # number: 1.5 would fail in the drain and True land on edge 1.
            edge_index = whole_number(edge_index, "edge_index",
                                      AdmissionError)
            if not 0 <= edge_index < self.num_edge_servers:
                raise AdmissionError(
                    f"edge_index {edge_index} out of range "
                    f"[0, {self.num_edge_servers})")
            if (self._edge_available is not None
                    and not self._edge_available(edge_index)):
                raise AdmissionError(f"edge {edge_index} is offline")
        session = StreamSession(
            session_id=camera, camera=camera, tenant=tenant,
            edge_index=edge_index, opened_at=self._scheduler.now,
            max_pending_chunks=policy.max_pending_chunks)
        self.sessions[camera] = session
        self._active += 1
        self._active_of[tenant] = self._active_of.get(tenant, 0) + 1
        self._attach_session(session)
        return session

    def push_frames(self, session_id: str, chunk: FrameChunk) -> None:
        """Accept a frame chunk into the pipeline, or push back.

        Raises:
            ServiceError: The session does not exist or is not open.
            BackpressureError: The session's in-flight bound is reached,
                or the fault plane refuses the edge; retry later.
        """
        session = self._session(session_id)
        if not session.is_open:
            raise ServiceError(
                f"session {session_id!r} is {session.state.value}, "
                "not open for pushes")
        if session.in_flight >= session.max_pending_chunks:
            self.pushes_rejected += 1
            raise BackpressureError(
                f"session {session_id!r} has {session.in_flight} chunks "
                f"in flight (bound {session.max_pending_chunks})")
        if self._push_gate is not None:
            # Checked last so a granted half-open breaker probe is always
            # followed by an actual submission.
            refusal = self._push_gate(session.edge_index)
            if refusal is not None:
                self.pushes_rejected += 1
                raise BackpressureError(refusal)
        now = self._scheduler.now
        session.last_push = now
        if session.chunks_pushed == 0:
            session.first_arrival = now
        session.chunks_pushed += 1
        session.frames_pushed += chunk.num_frames
        session.frames_for_inference += chunk.frames_for_inference
        session.edge_seconds_pushed += chunk.edge_seconds
        session.cloud_seconds_pushed += chunk.cloud_seconds
        session.camera_edge_bytes_pushed += chunk.camera_edge_bytes
        session.edge_cloud_bytes_pushed += chunk.edge_cloud_bytes
        self._submit_chunk(session, chunk)
        if self.on_chunk_scene is not None and chunk.scene is not None:
            self.on_chunk_scene(session, chunk, now)

    def close_session(self, session_id: str,
                      reason: str = "client") -> StreamSession:
        """Stop accepting pushes; the session drains its in-flight chunks.

        ``reason`` records *why* the session closed ("client" for an
        ordinary close; the fault plane uses "stalled", "backpressure",
        "edge-lost", ...).  Only the first close sets the reason; the
        histogram is served in ``ServiceStatus.close_reasons``.
        """
        session = self._session(session_id)
        if session.state is SessionState.CLOSED:
            return session
        if session.state is SessionState.OPEN:
            session.state = SessionState.DRAINING
            if not session.close_reason:
                session.close_reason = str(reason)
            self.close_reasons[session.close_reason] = (
                self.close_reasons.get(session.close_reason, 0) + 1)
        self._maybe_finalise(session)
        return session

    def retune_session(self, session_id: str, *,
                       max_pending_chunks: Optional[int] = None,
                       parameters: Optional[EncoderParameters] = None
                       ) -> StreamSession:
        """Adjust a live session without dropping it.

        Either (or both) of the session's backpressure bound and its
        deployed encoder parameters can be retuned; a parameter retune
        bumps ``session.parameter_version``.  The adaptive controller
        applies confirmed drift winners through exactly this path.
        """
        if max_pending_chunks is None and parameters is None:
            raise ServiceError(
                "retune_session needs max_pending_chunks and/or parameters")
        if max_pending_chunks is not None:
            max_pending_chunks = whole_number(
                max_pending_chunks, "max_pending_chunks", ServiceError, 1)
        session = self._session(session_id)
        if session.state is SessionState.CLOSED:
            raise ServiceError(f"session {session_id!r} is closed")
        if max_pending_chunks is not None:
            session.max_pending_chunks = max_pending_chunks
        if parameters is not None:
            session.parameters = parameters
            session.parameter_version += 1
        return session

    def on_chunk_complete(self, session: StreamSession,
                          latency_seconds: float) -> None:
        """Record a finished chunk (called by the service pipeline)."""
        session.chunks_completed += 1
        session.last_completion = self._scheduler.now
        session.chunk_latencies.append(latency_seconds)
        self._maybe_finalise(session)

    def on_chunk_failed(self, session: StreamSession) -> None:
        """Record a chunk lost for good (fault plane, failover impossible).

        The chunk leaves the in-flight accounting so a draining session
        can still finalise instead of waiting forever for a completion
        that will never come.
        """
        session.chunks_failed += 1
        self._maybe_finalise(session)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _session(self, session_id: str) -> StreamSession:
        session = self.sessions.get(session_id)
        if session is None:
            raise ServiceError(f"unknown session {session_id!r}")
        return session

    def _maybe_finalise(self, session: StreamSession) -> None:
        if session.state is SessionState.DRAINING and session.in_flight == 0:
            self._finalise(session, self._scheduler.now)

    def _finalise(self, session: StreamSession, at: float) -> None:
        """Close ``session`` for good at ``at``: it leaves the counts."""
        session.state = SessionState.CLOSED
        session.closed_at = at
        self._active -= 1
        self._active_of[session.tenant] -= 1
