"""Live health snapshots of the streaming service.

:meth:`StreamingService.status` folds the current state of every station,
link and session into one immutable :class:`ServiceStatus` — the payload a
``/healthz``-style endpoint would serve.  Two properties make it honest
mid-run where the batch report only had to be honest post-drain:

* utilisation uses :meth:`ServiceStation.busy_seconds_elapsed`, which
  pro-rates jobs still in service at the snapshot instant, so a station
  saturated since t=0 reads exactly 1.0 — never above — at any horizon cut;
* latency percentiles come from
  :func:`repro.cluster.fleet.latency_percentiles_of_each`, one
  ``np.percentile`` call per group of sessions with equally many
  completions, which yields ``nan`` (not a crash) while a session has none
  yet.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from ..cluster.fleet import latency_percentiles_of_each
from ..errors import ServiceError
from .session import SessionState


def _encode_float(value: float) -> Union[float, str]:
    """Encode one float for strict JSON (nan/inf become strings)."""
    if value != value:
        return "nan"
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return value


def _decode_float(value: Union[float, int, str]) -> float:
    """Invert :func:`_encode_float` (``float`` parses the sentinels)."""
    return float(value)


@dataclass(frozen=True)
class StationSnapshot:
    """One station or link at the snapshot instant.

    Attributes:
        name: Station/link name (``edge:0``, ``wan:2``, ``cloud``, ...).
        queue_depth: Jobs waiting for a worker right now.
        in_service: Jobs occupying a worker right now.
        busy_seconds: Busy time elapsed up to the snapshot (in-flight jobs
            pro-rated — see ``ServiceStation.busy_seconds_elapsed``).
        utilisation: ``busy / (capacity * elapsed horizon)``; in ``[0, 1]``.
        completed: Jobs finished so far.
    """

    name: str
    queue_depth: int
    in_service: int
    busy_seconds: float
    utilisation: float
    completed: int


@dataclass(frozen=True)
class SessionSnapshot:
    """One stream session at the snapshot instant.

    Attributes:
        session_id: Session identifier (camera name).
        tenant: Owning tenant.
        edge_index: Edge server the stream is placed on.
        state: Lifecycle state value (``open``/``draining``/``closed``).
        frames_pushed: Frames pushed so far.
        chunks_pushed: Chunks accepted so far.
        chunks_completed: Chunks finished so far.
        in_flight: Chunks currently in the pipeline.
        lan_queue_depth: Waiting transfers on the session's camera uplink.
        latency_percentiles: ``{50/95/99: seconds}`` over completed chunks
            (``nan`` before the first completion).
        parameter_version: Encoder-parameter retunes applied to the
            session so far (``0`` on the seed path).
    """

    session_id: str
    tenant: str
    edge_index: int
    state: str
    frames_pushed: int
    chunks_pushed: int
    chunks_completed: int
    in_flight: int
    lan_queue_depth: int
    latency_percentiles: Dict[int, float]
    parameter_version: int = 0


@dataclass(frozen=True)
class HealthSample:
    """One entry of the bounded health-history ring.

    Captured by :meth:`StreamingService.status` whenever the snapshot's
    combined fault/retune counters are non-empty, so breaker trips,
    failovers and retunes stay visible after the fact.  Clean runs never
    produce samples — fault-free snapshots look exactly like the seed's.

    Attributes:
        virtual_now: Scheduler clock when the sample was captured.
        counters: The flat counters at that instant.
    """

    virtual_now: float
    counters: Dict[str, int]


@dataclass(frozen=True)
class ServiceStatus:
    """Full health/metrics snapshot of a :class:`StreamingService`.

    Attributes:
        virtual_now: Scheduler clock at the snapshot.
        wall_run_seconds: Wall-clock seconds spent inside ``run`` so far.
        clock: The clock driver's ``describe()`` string.
        speedup: Real-time speedup factor (``inf`` for the virtual clock).
        clock_max_lag_seconds: Worst wall-clock lateness of any event under
            a real-time driver (``0`` for the virtual clock).
        events_processed: Events fired so far.
        pending_events: Events still queued.
        active_sessions: Sessions open or draining.
        total_sessions: Sessions ever admitted.
        sessions_rejected: Admissions refused so far.
        pushes_rejected: Frame pushes refused (backpressure) so far.
        tenants: ``tenant name -> active session count``.
        stations: Per-station snapshots (edges, WAN uplinks, cloud).
        sessions: Per-session snapshots, in admission order.
        close_reasons: ``reason -> count`` histogram of session closes.
        breaker_states: ``edge index -> breaker state value`` (empty
            without a fault driver).
        fault_counters: Flat :meth:`FaultStats.as_dict` metrics (empty
            on a clean run, so fault-free snapshots look like the seed's).
        retune_counters: Adaptive-tuning counters (``retunes_applied`` /
            ``retunes_suppressed``; empty without a controller or while
            it has done nothing).
        retune_history: Versioned retune history lines from the
            controller's :class:`~repro.core.tuner.ParameterLookupTable`
            (empty without a controller).
        health_history: Bounded ring of :class:`HealthSample` entries —
            ``(virtual_now, counters)`` captured on each ``status()``
            call that had non-empty counters (empty on clean runs).
    """

    virtual_now: float
    wall_run_seconds: float
    clock: str
    speedup: float
    clock_max_lag_seconds: float
    events_processed: int
    pending_events: int
    active_sessions: int
    total_sessions: int
    sessions_rejected: int
    pushes_rejected: int
    tenants: Dict[str, int]
    stations: Tuple[StationSnapshot, ...]
    sessions: Tuple[SessionSnapshot, ...]
    close_reasons: Dict[str, int] = field(default_factory=dict)
    breaker_states: Dict[int, str] = field(default_factory=dict)
    fault_counters: Dict[str, int] = field(default_factory=dict)
    retune_counters: Dict[str, int] = field(default_factory=dict)
    retune_history: Tuple[str, ...] = ()
    health_history: Tuple[HealthSample, ...] = ()

    @property
    def max_utilisation(self) -> float:
        """Highest utilisation across all stations (``0`` when empty)."""
        return max((station.utilisation for station in self.stations),
                   default=0.0)

    @property
    def total_in_flight(self) -> int:
        """Chunks currently inside the pipeline, across all sessions."""
        return sum(session.in_flight for session in self.sessions)

    def to_json(self, indent: object = None) -> str:
        """Lossless strict-JSON encoding of the snapshot.

        Integer dict keys are encoded as strings and restored by
        :meth:`from_json`; ``nan``/``±inf`` floats are encoded as the
        explicit sentinels ``"nan"``/``"inf"``/``"-inf"`` (``allow_nan``
        is off, so nothing non-standard can leak through).
        """
        payload: Dict[str, object] = {
            "virtual_now": _encode_float(self.virtual_now),
            "wall_run_seconds": _encode_float(self.wall_run_seconds),
            "clock": self.clock,
            "speedup": _encode_float(self.speedup),
            "clock_max_lag_seconds": _encode_float(
                self.clock_max_lag_seconds),
            "events_processed": self.events_processed,
            "pending_events": self.pending_events,
            "active_sessions": self.active_sessions,
            "total_sessions": self.total_sessions,
            "sessions_rejected": self.sessions_rejected,
            "pushes_rejected": self.pushes_rejected,
            "tenants": dict(self.tenants),
            "stations": [{
                "name": station.name,
                "queue_depth": station.queue_depth,
                "in_service": station.in_service,
                "busy_seconds": _encode_float(station.busy_seconds),
                "utilisation": _encode_float(station.utilisation),
                "completed": station.completed,
            } for station in self.stations],
            "sessions": [{
                "session_id": session.session_id,
                "tenant": session.tenant,
                "edge_index": session.edge_index,
                "state": session.state,
                "frames_pushed": session.frames_pushed,
                "chunks_pushed": session.chunks_pushed,
                "chunks_completed": session.chunks_completed,
                "in_flight": session.in_flight,
                "lan_queue_depth": session.lan_queue_depth,
                "latency_percentiles": {
                    str(percentile): _encode_float(value)
                    for percentile, value
                    in session.latency_percentiles.items()},
                "parameter_version": session.parameter_version,
            } for session in self.sessions],
            "close_reasons": dict(self.close_reasons),
            "breaker_states": {str(index): state for index, state
                               in self.breaker_states.items()},
            "fault_counters": dict(self.fault_counters),
            "retune_counters": dict(self.retune_counters),
            "retune_history": list(self.retune_history),
            "health_history": [{
                "virtual_now": _encode_float(sample.virtual_now),
                "counters": dict(sample.counters),
            } for sample in self.health_history],
        }
        return json.dumps(payload, indent=indent, sort_keys=True,
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ServiceStatus":
        """Rebuild a snapshot from :meth:`to_json` output.

        Restores the integer percentile/breaker keys and decodes the
        nan/inf sentinels, so ``from_json(status.to_json())`` reproduces
        ``status`` field-for-field (nan compares unequal to itself, so
        compare via ``to_json`` for byte-identity).  Text that is not such
        output raises :class:`~repro.errors.ServiceError`.
        """
        try:
            payload = json.loads(text)
            return cls(
                virtual_now=_decode_float(payload["virtual_now"]),
                wall_run_seconds=_decode_float(payload["wall_run_seconds"]),
                clock=payload["clock"],
                speedup=_decode_float(payload["speedup"]),
                clock_max_lag_seconds=_decode_float(
                    payload["clock_max_lag_seconds"]),
                events_processed=payload["events_processed"],
                pending_events=payload["pending_events"],
                active_sessions=payload["active_sessions"],
                total_sessions=payload["total_sessions"],
                sessions_rejected=payload["sessions_rejected"],
                pushes_rejected=payload["pushes_rejected"],
                tenants=dict(payload["tenants"]),
                stations=tuple(StationSnapshot(
                    name=station["name"],
                    queue_depth=station["queue_depth"],
                    in_service=station["in_service"],
                    busy_seconds=_decode_float(station["busy_seconds"]),
                    utilisation=_decode_float(station["utilisation"]),
                    completed=station["completed"],
                ) for station in payload["stations"]),
                sessions=tuple(SessionSnapshot(
                    session_id=session["session_id"],
                    tenant=session["tenant"],
                    edge_index=session["edge_index"],
                    state=session["state"],
                    frames_pushed=session["frames_pushed"],
                    chunks_pushed=session["chunks_pushed"],
                    chunks_completed=session["chunks_completed"],
                    in_flight=session["in_flight"],
                    lan_queue_depth=session["lan_queue_depth"],
                    latency_percentiles={
                        int(percentile): _decode_float(value)
                        for percentile, value
                        in session["latency_percentiles"].items()},
                    parameter_version=session["parameter_version"],
                ) for session in payload["sessions"]),
                close_reasons=dict(payload["close_reasons"]),
                breaker_states={int(index): state for index, state
                                in payload["breaker_states"].items()},
                fault_counters=dict(payload["fault_counters"]),
                retune_counters=dict(payload["retune_counters"]),
                retune_history=tuple(payload["retune_history"]),
                health_history=tuple(HealthSample(
                    virtual_now=_decode_float(sample["virtual_now"]),
                    counters=dict(sample["counters"]),
                ) for sample in payload["health_history"]),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed service status: {exc}") from exc


def snapshot_station(name: str, station, horizon: float) -> StationSnapshot:
    """Snapshot a :class:`ServiceStation` (or anything with its surface)."""
    now = station.scheduler.now if hasattr(station, "scheduler") else horizon
    return StationSnapshot(
        name=name,
        queue_depth=station.queue_depth,
        in_service=station.in_service,
        busy_seconds=station.busy_seconds_elapsed(now),
        utilisation=station.utilisation(horizon, now=now),
        completed=station.stats.completed,
    )


def snapshot_sessions(sessions: Sequence,
                      lan_queue_depths: Sequence[int]
                      ) -> Tuple[SessionSnapshot, ...]:
    """Snapshot every :class:`~repro.service.session.StreamSession`, with
    the waiting transfers on its camera uplink.

    Latency percentiles are taken in one ``np.percentile`` call per group
    of sessions holding equally many latencies
    (:func:`~repro.cluster.fleet.latency_percentiles_of_each`).
    """
    # Read in place: each store is packed doubles.
    percentiles = latency_percentiles_of_each(
        [np.frombuffer(session.chunk_latencies) for session in sessions])
    return tuple([SessionSnapshot(
        session_id=session.session_id,
        tenant=session.tenant,
        edge_index=session.edge_index,
        state=session.state.value if isinstance(session.state, SessionState)
        else str(session.state),
        frames_pushed=session.frames_pushed,
        chunks_pushed=session.chunks_pushed,
        chunks_completed=session.chunks_completed,
        in_flight=session.in_flight,
        lan_queue_depth=lan_queue_depth,
        latency_percentiles=latency_percentiles,
        parameter_version=session.parameter_version,
    ) for session, lan_queue_depth, latency_percentiles
        in zip(sessions, lan_queue_depths, percentiles)])
