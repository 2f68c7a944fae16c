"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is a frozen bag of fault *specs* — edge crashes,
WAN partition windows and per-camera stream stalls — that the
service's fault driver (see :mod:`repro.faults.injector`) replays through
the discrete-event scheduler.  Plans are plain data: the same plan
produces the same fault events in the same order on every run, under
either clock driver, which is what makes recovery traces diffable.

``FaultPlan.seeded`` draws a plan from the seeded RNG tree
(:mod:`repro.rng`) — two edge crashes, one WAN partition and one stream
stall — so chaos soaks are reproducible from a single root seed.  An
**empty plan is the default everywhere**: with no plan installed the
injection hooks are never scheduled and the fault-free path stays
bit-identical to the seed (the standing bitwise-stability contract).

Every spec checks its fields when it is built: a malformed value (a
string, ``None``, a ``bool``, a fraction for an index, ``nan`` or ``inf``
for a time) raises :class:`~repro.errors.FaultError` there, never a bare
error later inside a drain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..config import NON_NEGATIVE, POSITIVE, real_number, whole_number
from ..errors import FaultError
from ..rng import make_rng


@dataclass(frozen=True)
class EdgeCrash:
    """An edge server crashes at ``at_seconds``.

    With ``restart_after_seconds`` set the crash is a transient outage:
    the edge's compute station drops its in-flight work (requeued by the
    driver) and comes back after the delay.  With it ``None`` the crash
    is permanent — the edge goes offline for good and its unfinished
    work is failed over to healthy edges.
    """

    edge_index: int
    at_seconds: float
    restart_after_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge_index", whole_number(
            self.edge_index, "edge_index", FaultError, 0))
        real_number(self.at_seconds, "at_seconds", FaultError, **NON_NEGATIVE)
        if self.restart_after_seconds is not None:
            real_number(self.restart_after_seconds, "restart_after_seconds",
                        FaultError, **POSITIVE)

    @property
    def permanent(self) -> bool:
        """Whether the edge never comes back."""
        return self.restart_after_seconds is None


@dataclass(frozen=True)
class WanDegradation:
    """The WAN uplink of one edge is partitioned for a window.

    The link pauses: queued transfers wait for the window to end, nothing
    is lost.
    """

    edge_index: int
    at_seconds: float
    duration_seconds: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge_index", whole_number(
            self.edge_index, "edge_index", FaultError, 0))
        real_number(self.at_seconds, "at_seconds", FaultError, **NON_NEGATIVE)
        real_number(self.duration_seconds, "duration_seconds", FaultError,
                    **POSITIVE)


@dataclass(frozen=True)
class StreamStall:
    """One camera's uplink stalls (drops out) for a window.

    The session's LAN link pauses: chunks pushed during the window queue
    behind the stall and flow again when it lifts.  Long stalls are what
    the session watchdog (``ResilienceConfig.stall_timeout_seconds``)
    exists to detect.
    """

    camera: str
    at_seconds: float
    duration_seconds: float

    def __post_init__(self) -> None:
        if not (isinstance(self.camera, str) and self.camera):
            raise FaultError(
                f"camera must be a non-empty string, got {self.camera!r}")
        real_number(self.at_seconds, "at_seconds", FaultError, **NON_NEGATIVE)
        real_number(self.duration_seconds, "duration_seconds", FaultError,
                    **POSITIVE)


#: Any single fault specification.
FaultSpec = Union[EdgeCrash, WanDegradation, StreamStall]


def _by_time(specs: Sequence[FaultSpec]) -> Tuple[FaultSpec, ...]:
    """Stable time-sort (specs without a time keep plan order)."""
    return tuple(sorted(specs,
                        key=lambda spec: getattr(spec, "at_seconds", 0.0)))


@dataclass(frozen=True)
class FaultPlan:
    """A composable, replayable set of fault specs.

    The empty plan (``FaultPlan()``) installs the hooks but schedules no
    faults; the service's bit-identity tests hold it to a run with no plan.
    """

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if (isinstance(self.specs, (str, bytes))
                or not hasattr(self.specs, "__iter__")):
            raise FaultError(f"specs must be a sequence of fault specs, "
                             f"got {self.specs!r}")
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, (EdgeCrash, WanDegradation, StreamStall)):
                raise FaultError(f"unknown fault spec {spec!r}")

    @property
    def edge_crashes(self) -> Tuple[EdgeCrash, ...]:
        """Edge crashes, time-ordered."""
        return _by_time([spec for spec in self.specs
                         if isinstance(spec, EdgeCrash)])

    @property
    def wan_degradations(self) -> Tuple[WanDegradation, ...]:
        """WAN partition windows, time-ordered."""
        return _by_time([spec for spec in self.specs
                         if isinstance(spec, WanDegradation)])

    @property
    def stream_stalls(self) -> Tuple[StreamStall, ...]:
        """Per-camera stream stalls, time-ordered."""
        return _by_time([spec for spec in self.specs
                         if isinstance(spec, StreamStall)])

    def validate_for(self, num_edge_servers: int) -> None:
        """Check every edge-indexed spec fits a fleet of this size.

        Also rejects plans whose *permanent* crashes would take every
        edge offline: failover needs at least one survivor.
        """
        for spec in self.specs:
            index = getattr(spec, "edge_index", None)
            if index is not None and index >= num_edge_servers:
                raise FaultError(
                    f"{type(spec).__name__} targets edge {index} but the "
                    f"fleet has {num_edge_servers} edge server(s)")
        doomed = {spec.edge_index for spec in self.edge_crashes
                  if spec.permanent}
        if doomed and len(doomed) >= num_edge_servers:
            raise FaultError(
                "plan permanently crashes every edge server; failover "
                "needs at least one healthy edge")

    @classmethod
    def seeded(cls, seed: int, *, num_edge_servers: int,
               cameras: Sequence[str] = (),
               horizon_seconds: float = 10.0) -> "FaultPlan":
        """Draw a reproducible plan from the seeded RNG tree.

        The storm is two crashes on distinct edges (a permutation draw),
        the first permanent and the second transient so it exercises both
        failover and restart, one WAN partition and, given cameras, one
        stream stall.  All times land inside ``horizon_seconds``.  Same
        arguments, same plan.
        """
        # Two crashes need a third edge to keep a healthy survivor.
        num_edge_servers = whole_number(num_edge_servers, "num_edge_servers",
                                        FaultError, 3)
        real_number(horizon_seconds, "horizon_seconds", FaultError, **POSITIVE)
        rng = make_rng(seed, "faults", "plan")
        doomed, restarted = rng.permutation(num_edge_servers)[:2]
        specs: List[FaultSpec] = [EdgeCrash(
            edge_index=int(doomed),
            at_seconds=float(rng.uniform(0.1, 0.6) * horizon_seconds))]
        specs.append(EdgeCrash(
            edge_index=int(restarted),
            at_seconds=float(rng.uniform(0.1, 0.6) * horizon_seconds),
            restart_after_seconds=float(
                rng.uniform(0.05, 0.2) * horizon_seconds)))
        edge = int(rng.integers(0, num_edge_servers))
        at = float(rng.uniform(0.1, 0.5) * horizon_seconds)
        duration = float(rng.uniform(0.1, 0.3) * horizon_seconds)
        specs.append(WanDegradation(edge_index=edge, at_seconds=at,
                                    duration_seconds=duration))
        if cameras:
            camera = str(cameras[int(rng.integers(0, len(cameras)))])
            at = float(rng.uniform(0.1, 0.4) * horizon_seconds)
            duration = float(rng.uniform(0.2, 0.5) * horizon_seconds)
            specs.append(StreamStall(camera=camera, at_seconds=at,
                                     duration_seconds=duration))
        plan = cls(specs=tuple(specs))
        plan.validate_for(num_edge_servers)
        return plan

