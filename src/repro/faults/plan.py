"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is a frozen bag of fault *specs* — edge crashes,
WAN degradation windows, per-camera stream stalls, pool-worker kills and
disk-cache corruptions — that the injection drivers (see
:mod:`repro.faults.injector`) replay through the discrete-event
scheduler.  Plans are plain data: the same plan produces the same fault
events in the same order on every run, under either clock driver, which
is what makes recovery traces diffable.

``FaultPlan.seeded`` draws a plan from the seeded RNG tree
(:mod:`repro.rng`), so chaos soaks are reproducible from a single root
seed.  An **empty plan is the default everywhere**: with no plan
installed the injection hooks are never scheduled and the fault-free
path stays bit-identical to the seed (the standing bitwise-stability
contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import FaultError
from ..rng import make_rng

#: Supported :class:`CacheCorruption` modes (see ``apply_cache_corruption``).
CACHE_CORRUPTION_MODES = ("torn-write", "truncate-bundle")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FaultError(message)


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
        _require(self.edge_index >= 0, "edge_index must be >= 0")
        _require(self.at_seconds >= 0.0, "at_seconds must be >= 0")
        if self.restart_after_seconds is not None:
            _require(self.restart_after_seconds > 0.0,
                     "restart_after_seconds must be > 0 when set")

    @property
    def permanent(self) -> bool:
        """Whether the edge never comes back."""
        return self.restart_after_seconds is None


@dataclass(frozen=True)
class WanDegradation:
    """The WAN uplink of one edge degrades for a window.

    ``bandwidth_factor`` is the fraction of bandwidth that survives:
    ``0.0`` is a full partition (the link pauses; queued transfers wait,
    nothing is lost), ``0 < factor < 1`` stretches transfer times by
    ``1 / factor`` for transfers *submitted* during the window.
    """

    edge_index: int
    at_seconds: float
    duration_seconds: float
    bandwidth_factor: float = 0.0

    def __post_init__(self) -> None:
        _require(self.edge_index >= 0, "edge_index must be >= 0")
        _require(self.at_seconds >= 0.0, "at_seconds must be >= 0")
        _require(self.duration_seconds > 0.0, "duration_seconds must be > 0")
        _require(0.0 <= self.bandwidth_factor < 1.0,
                 "bandwidth_factor must be in [0, 1)")

    @property
    def partition(self) -> bool:
        """Whether the window is a full partition (no bandwidth at all)."""
        return self.bandwidth_factor <= 0.0


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
        _require(bool(self.camera), "camera must be non-empty")
        _require(self.at_seconds >= 0.0, "at_seconds must be >= 0")
        _require(self.duration_seconds > 0.0, "duration_seconds must be > 0")


@dataclass(frozen=True)
class WorkerKill:
    """A pool worker dies mid-run.

    Honoured by the workload builder (:mod:`repro.parallel.workloads`):
    the worker picking up the build task at index ``edge_index`` exits
    hard before writing anything, and the parent's serial assembly pass
    rebuilds the lost artifact.  Everything without a worker process —
    the serial build, the fleet, the service — ignores worker kills,
    which is exactly what the serial == parallel parity contract requires.
    """

    edge_index: int

    def __post_init__(self) -> None:
        _require(self.edge_index >= 0, "edge_index must be >= 0")


@dataclass(frozen=True)
class CacheCorruption:
    """On-disk corruption of one dataset-cache entry.

    Applied by ``apply_cache_corruption`` (chaos tests call it between
    a store and the next load); the cache's own verification degrades
    every mode to a clean miss / recompute.
    """

    kind: str
    key: str
    mode: str = "truncate-bundle"

    def __post_init__(self) -> None:
        _require(bool(self.kind) and bool(self.key),
                 "kind and key must be non-empty")
        _require(self.mode in CACHE_CORRUPTION_MODES,
                 f"mode must be one of {CACHE_CORRUPTION_MODES}")


#: Any single fault specification.
FaultSpec = Union[EdgeCrash, WanDegradation, StreamStall, WorkerKill,
                  CacheCorruption]


def _by_time(specs: Sequence[FaultSpec]) -> Tuple[FaultSpec, ...]:
    """Stable time-sort (specs without a time keep plan order)."""
    return tuple(sorted(specs,
                        key=lambda spec: getattr(spec, "at_seconds", 0.0)))


@dataclass(frozen=True)
class FaultPlan:
    """A composable, replayable set of fault specs.

    The empty plan (``FaultPlan()``) installs the hooks but schedules no
    faults — used by the ``faults.recovery_overhead`` bench to show the
    hooks themselves are free.
    """

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            _require(isinstance(spec, (EdgeCrash, WanDegradation,
                                       StreamStall, WorkerKill,
                                       CacheCorruption)),
                     f"unknown fault spec {spec!r}")

    @property
    def edge_crashes(self) -> Tuple[EdgeCrash, ...]:
        """Edge crashes, time-ordered."""
        return _by_time([spec for spec in self.specs
                         if isinstance(spec, EdgeCrash)])

    @property
    def wan_degradations(self) -> Tuple[WanDegradation, ...]:
        """WAN degradation windows, time-ordered."""
        return _by_time([spec for spec in self.specs
                         if isinstance(spec, WanDegradation)])

    @property
    def stream_stalls(self) -> Tuple[StreamStall, ...]:
        """Per-camera stream stalls, time-ordered."""
        return _by_time([spec for spec in self.specs
                         if isinstance(spec, StreamStall)])

    @property
    def worker_kills(self) -> Tuple[WorkerKill, ...]:
        """Pool-worker kills (plan order)."""
        return tuple(spec for spec in self.specs
                     if isinstance(spec, WorkerKill))

    @property
    def has_scheduler_faults(self) -> bool:
        """Whether any spec needs in-scheduler injection (crash/WAN/stall).

        Worker kills and cache corruptions act outside the event loop,
        so a plan holding only those leaves the simulation untouched.
        """
        return any(isinstance(spec, (EdgeCrash, WanDegradation, StreamStall))
                   for spec in self.specs)

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
               horizon_seconds: float = 10.0,
               num_edge_crashes: int = 2,
               num_wan_partitions: int = 1,
               num_stream_stalls: int = 1,
               num_worker_kills: int = 1) -> "FaultPlan":
        """Draw a reproducible plan from the seeded RNG tree.

        Crash targets are distinct edges (a permutation draw); crashes
        alternate permanent / transient starting permanent, so the
        default plan exercises both failover and restart.  All times
        land inside ``horizon_seconds``.  Same arguments, same plan.
        """
        _require(num_edge_servers >= 1, "num_edge_servers must be >= 1")
        _require(horizon_seconds > 0.0, "horizon_seconds must be > 0")
        _require(num_edge_crashes < num_edge_servers
                 or num_edge_crashes == 0,
                 "need more edges than crashes to keep a healthy survivor")
        rng = make_rng(seed, "faults", "plan")
        specs: List[FaultSpec] = []
        crash_edges = rng.permutation(num_edge_servers)[:num_edge_crashes]
        for order, edge in enumerate(crash_edges):
            at = float(rng.uniform(0.1, 0.6) * horizon_seconds)
            restart = None
            if order % 2 == 1:
                restart = float(rng.uniform(0.05, 0.2) * horizon_seconds)
            specs.append(EdgeCrash(edge_index=int(edge), at_seconds=at,
                                   restart_after_seconds=restart))
        for _ in range(num_wan_partitions):
            edge = int(rng.integers(0, num_edge_servers))
            at = float(rng.uniform(0.1, 0.5) * horizon_seconds)
            duration = float(rng.uniform(0.1, 0.3) * horizon_seconds)
            specs.append(WanDegradation(edge_index=edge, at_seconds=at,
                                        duration_seconds=duration))
        for _ in range(num_stream_stalls if cameras else 0):
            camera = str(cameras[int(rng.integers(0, len(cameras)))])
            at = float(rng.uniform(0.1, 0.4) * horizon_seconds)
            duration = float(rng.uniform(0.2, 0.5) * horizon_seconds)
            specs.append(StreamStall(camera=camera, at_seconds=at,
                                     duration_seconds=duration))
        for index in range(num_worker_kills):
            specs.append(WorkerKill(
                edge_index=int(rng.integers(0, num_edge_servers))))
        plan = cls(specs=tuple(specs))
        plan.validate_for(num_edge_servers)
        return plan


def apply_cache_corruption(spec: CacheCorruption,
                           directory: Optional[str] = None) -> str:
    """Inflict ``spec`` on the on-disk dataset cache; returns the path hit.

    * ``torn-write`` — plant a truncated ``.tmp-*`` file next to where
      the bundle would live, as if the process died between the temp
      write and the atomic rename.  The entry itself is absent, so the
      next load is a clean miss.
    * ``truncate-bundle`` — chop the stored ``.npz`` in half; the next
      load fails verification, evicts and recomputes.
    """
    import os

    from ..datasets import diskcache

    bundle = diskcache.artifact_path(spec.kind, spec.key,
                                     directory=directory)
    if spec.mode == "torn-write":
        torn = os.path.join(os.path.dirname(bundle),
                            f".tmp-torn-{spec.key[:16]}")
        os.makedirs(os.path.dirname(bundle), exist_ok=True)
        with open(torn, "wb") as handle:
            handle.write(b"\x00" * 7)
        return torn
    if not os.path.exists(bundle):
        raise FaultError(f"no cached bundle to corrupt at {bundle}")
    size = os.path.getsize(bundle)
    with open(bundle, "r+b") as handle:
        handle.truncate(max(size // 2, 1))
    return bundle
