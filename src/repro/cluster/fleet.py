"""Multi-edge fleet orchestration over the discrete-event scheduler.

The paper's testbed is one camera feed per experiment: one edge desktop, one
cloud server, one WAN link.  A production deployment of the same NiFi-style
pipeline serves a *fleet* — N cameras sharded over M edge servers that all
funnel into the cloud tier.  :class:`FleetOrchestrator` simulates that
deployment on the shared virtual clock of
:mod:`repro.dataflow.scheduler`:

* each camera contributes one :class:`CameraJob` — the planned per-tier
  compute seconds and transfer bytes of pushing its footage through a
  deployment mode (the planning lives in :func:`repro.core.pipeline`'s
  ``plan_camera_job`` so this module stays mode-agnostic);
* a :class:`PlacementPolicy` shards cameras across edge servers;
* every tier is a contended resource, and every job is one unit of work
  on the shared :class:`~repro.cluster.topology.StageChain` — the single
  definition of the LAN -> edge -> WAN -> cloud pipeline this
  orchestrator and the streaming service drive.  A run is computed as a
  recurrence over the same stations
  (:mod:`repro.cluster.recurrence`) and equals the chain's report bit for
  bit;
* the resulting :class:`FleetReport` adds what the single-engine evaluation
  cannot see — per-tier utilisation, peak queue depths, and end-to-end
  latency percentiles — alongside the familiar throughput/bytes totals.

Determinism: given the same job list, configuration and ``seed``, two runs
produce identical reports (see the seeding contract in :mod:`repro.rng`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial, reduce
from heapq import heapreplace
from operator import add, attrgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from ..config import NON_NEGATIVE, SystemConfig, real_number, whole_number
from ..dataflow.scheduler import EventScheduler, StationStats
from ..errors import ClusterError
from ..faults.stats import FaultStats
from ..net.link import NetworkLink
from ..perf import Stopwatch
from ..rng import make_rng
from .recurrence import EVENTS_PER_JOB, replay_fleet
from .topology import StageChain, StageUnit

#: Latency percentiles reported by the fleet simulator.
LATENCY_PERCENTILES = (50, 95, 99)


def latency_percentiles_of(latencies: Sequence[float]) -> Dict[int, float]:
    """The report's latency percentiles over ``latencies``.

    An empty sample — a fleet whose admission control rejected every camera,
    or a service snapshot taken before any completion — yields ``nan`` at
    every percentile rather than raising, so report assembly stays
    well-formed (``np.percentile`` errors on empty input).  This is the
    one-sample form of :func:`latency_percentiles_of_each`.
    """
    return latency_percentiles_of_each([latencies])[0]


#: Values one ``np.percentile`` call of
#: :func:`latency_percentiles_of_each` takes at most (one sample excepted):
#: the call copies its matrix, so a snapshot's scratch memory stays bounded
#: whatever the number of samples.
PERCENTILE_BATCH_VALUES = 2 ** 20


def latency_percentiles_of_each(samples: Sequence[Sequence[float]]
                                ) -> List[Dict[int, float]]:
    """:func:`latency_percentiles_of` of every sample, in one
    ``np.percentile(..., axis=1)`` call per sample length and batch of
    :data:`PERCENTILE_BATCH_VALUES` values: the samples of one length are
    the rows of one matrix, and each row's percentiles are the bits a call
    on that row alone gives."""
    groups: Dict[int, List[int]] = {}
    for index, sample in enumerate(samples):
        groups.setdefault(len(sample), []).append(index)
    percentiles: List[Dict[int, float]] = [{}] * len(samples)
    for length, members in groups.items():
        if length == 0:
            rows = [[float("nan")] * len(LATENCY_PERCENTILES)] * len(members)
        else:
            batch = max(1, PERCENTILE_BATCH_VALUES // length)
            rows = []
            for first in range(0, len(members), batch):
                rows += np.percentile(
                    np.array([samples[index]
                              for index in members[first:first + batch]],
                             dtype=np.float64),
                    LATENCY_PERCENTILES, axis=1).T.tolist()
        for index, row in zip(members, rows):
            percentiles[index] = dict(zip(LATENCY_PERCENTILES, row))
    return percentiles


def tier_report(stats, capacity: int, makespan: float) -> "TierReport":
    """Fold one station's statistics into a :class:`TierReport`."""
    utilisation = (stats.busy_seconds / (capacity * makespan)
                   if makespan > 0 else 0.0)
    return TierReport(busy_seconds=stats.busy_seconds,
                      utilisation=utilisation,
                      max_queue_depth=stats.max_queue_depth,
                      completed=stats.completed)


class PlacementPolicy(enum.Enum):
    """How cameras are sharded across the edge servers."""

    ROUND_ROBIN = "round-robin"
    LEAST_LOADED = "least-loaded"
    BANDWIDTH_AWARE = "bandwidth-aware"

    @classmethod
    def from_name(cls, name: "PlacementPolicy | str") -> "PlacementPolicy":
        """Coerce a policy or its string value into a :class:`PlacementPolicy`."""
        if isinstance(name, cls):
            return name
        for policy in cls:
            if policy.value == name or policy.name.lower() == str(name).lower():
                return policy
        raise ClusterError(
            f"unknown placement policy {name!r}; "
            f"expected one of {[policy.value for policy in cls]}")


#: The type each numeric :class:`CameraJob` field is stored as.
_STORED_AS = (("num_frames", int), ("frames_for_inference", int),
              ("edge_seconds", float), ("cloud_seconds", float),
              ("camera_edge_bytes", int), ("edge_cloud_bytes", int))
_STORED_TYPES = tuple(kind for _, kind in _STORED_AS)
_stored_values = attrgetter(*(name for name, _ in _STORED_AS))


@dataclass(frozen=True)
class CameraJob:
    """The planned cost of pushing one camera's footage through the fleet.

    Attributes:
        camera: Camera name (unique within the fleet).
        video: Name of the workload/video the camera serves.
        num_frames: Total frames in the footage (I and P).
        frames_for_inference: Frames that undergo NN inference.
        edge_seconds: Compute seconds charged to the camera's edge server.
        cloud_seconds: Compute seconds charged to the cloud tier.
        camera_edge_bytes: Bytes moved camera -> edge (LAN).
        edge_cloud_bytes: Bytes moved edge -> cloud (WAN).
        accuracy: Per-frame label accuracy (``nan`` when unlabelled).
    """

    camera: str
    video: str
    num_frames: int
    frames_for_inference: int
    edge_seconds: float
    cloud_seconds: float
    camera_edge_bytes: int
    edge_cloud_bytes: int
    accuracy: float = float("nan")

    def __post_init__(self) -> None:
        # Counts and bytes are stored as ``int`` and seconds as ``float``,
        # whatever real type they came in as; anything else is refused
        # before a comparison can raise a bare TypeError on it.
        values = _stored_values(self)
        stored = tuple(map(type, values)) == _STORED_TYPES
        if not stored:
            for (name, kind), value in zip(_STORED_AS, values):
                # np.float64 is a float, so needs no ABC check.
                if type(value) is not kind and not isinstance(value, float):
                    real_number(value, name, ClusterError)
        for value in (self.num_frames, self.frames_for_inference):
            if not (0 <= value < math.inf and value == int(value)):
                raise ClusterError(
                    f"frame counts must be whole numbers >= 0, got {value!r}")
        if not (0 <= self.edge_seconds < math.inf
                and 0 <= self.cloud_seconds < math.inf):
            raise ClusterError("compute seconds must be finite and >= 0")
        # Byte counts are whole bytes below 2**63: a fraction has no
        # meaning on a link, and the result stores keep them as int64.
        for value in (self.camera_edge_bytes, self.edge_cloud_bytes):
            if not (0 <= value < 2 ** 63 and value == int(value)):
                raise ClusterError(
                    "transfer bytes must be whole numbers in [0, 2**63), "
                    f"got {value!r}")
        if not stored:
            for (name, kind), value in zip(_STORED_AS, values):
                if type(value) is not kind:
                    object.__setattr__(self, name, kind(value))


class JobOutcome(NamedTuple):
    """One job's row of a :class:`FleetOutcomes` record, built on demand.

    Attributes:
        job: The planned job.
        edge_index: Edge server the camera ended up on.
        start_seconds: Virtual time the camera started streaming.
        end_seconds: Virtual time the cloud finished its inference
            (``nan`` while it has not).
    """

    job: CameraJob
    edge_index: int
    start_seconds: float
    end_seconds: float


#: A row from its four values, built in C: no Python-level call per row.
_row = partial(tuple.__new__, JobOutcome)

#: Rows of :attr:`FleetOutcomes.instants`: the ingest, then the ends of the
#: LAN, edge, WAN and cloud stages (the recurrence's events, in order).
_INGEST, _LAN_END, _EDGE_END, _WAN_END, _CLOUD_END = range(EVENTS_PER_JOB)


class FleetOutcomes:
    """Every job's placement and stage instants, one column each.

    The fleet's per-job timelines as one struct of arrays: the recurrence
    writes it from its event times, the event loop stamps it as jobs move
    through the chain, and :func:`fold_report` reduces it column by column.
    Iterating yields one :class:`JobOutcome` row per job, built on demand.

    Attributes:
        jobs: The planned jobs, in submission order.
        edges: Each job's edge index (int64); fail-over rewrites it, so it
            holds the edge a job finished on.
        instants: float64 array of shape ``(5, len(jobs))``: per job its
            ingest and the instants its LAN, edge, WAN and cloud stages
            ended, ``nan`` for a stage that has not ended.
    """

    __slots__ = ("jobs", "edges", "instants")

    def __init__(self, jobs: Sequence[CameraJob], edges: np.ndarray,
                 instants: np.ndarray) -> None:
        self.jobs = jobs
        self.edges = edges
        self.instants = instants

    @classmethod
    def starting(cls, jobs: Sequence[CameraJob], edges: Sequence[int],
                 starts: Sequence[float]) -> "FleetOutcomes":
        """A record of jobs ingested at ``starts`` that ended no stage yet."""
        instants = np.full((EVENTS_PER_JOB, len(jobs)), np.nan)
        instants[_INGEST] = starts
        return cls(jobs, np.array(edges, dtype=np.int64), instants)

    @property
    def ingest(self) -> np.ndarray:
        """When each camera started streaming."""
        return self.instants[_INGEST]

    @property
    def cloud_end(self) -> np.ndarray:
        """When the cloud finished each job's inference."""
        return self.instants[_CLOUD_END]

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[JobOutcome]:
        return map(_row, zip(self.jobs, self.edges.tolist(),
                             self.ingest.tolist(), self.cloud_end.tolist()))

    def __getitem__(self, index: int) -> JobOutcome:
        return JobOutcome(self.jobs[index], int(self.edges[index]),
                          float(self.ingest[index]),
                          float(self.cloud_end[index]))


#: The record row a stage entry stamps: entering a stage ends the one before.
_ENDED_BY_ENTRY = {"edge": _LAN_END, "wan": _EDGE_END, "cloud": _WAN_END}


class _JobRun(StageUnit):
    """One camera job moving through the fleet's stage chain.

    The run is a cursor on the job's column of a :class:`FleetOutcomes`.
    The chain reads the job's placement from the edge column at every
    stage entry, and each stage entry stamps the instant the stage before
    it ended.
    """

    __slots__ = ("outcomes", "index", "scheduler")

    def __init__(self, outcomes: FleetOutcomes, index: int,
                 scheduler: EventScheduler) -> None:
        self.outcomes = outcomes
        self.index = index
        self.scheduler = scheduler
        super().__init__(outcomes.jobs[index])

    @property
    def edge_index(self) -> int:
        return int(self.outcomes.edges[self.index])

    #: One shared LAN link per edge: a job ingests over its edge's.
    lan_key = edge_index

    def _enter(self, name: str) -> None:
        row = _ENDED_BY_ENTRY.get(name)
        if row is not None:
            self.outcomes.instants[row, self.index] = self.scheduler.now

    #: Written by the chain at every stage entry; nothing reads it back.
    stage = property(fset=_enter)

    def finish(self) -> None:
        """Stamp the end of the job's cloud stage."""
        self.outcomes.instants[_CLOUD_END, self.index] = self.scheduler.now


@dataclass
class TierReport:
    """Utilisation and queueing of one fleet tier (or one station).

    Attributes:
        busy_seconds: Total service time consumed.
        utilisation: ``busy / (capacity * makespan)``.
        max_queue_depth: Peak number of waiting jobs.
        completed: Jobs served.
    """

    busy_seconds: float
    utilisation: float
    max_queue_depth: int
    completed: int


@dataclass
class FleetReport:
    """What one fleet simulation produced.

    Attributes:
        policy: Placement policy used.
        num_edge_servers: Edge servers in the fleet.
        num_cameras: Cameras served.
        makespan_seconds: Virtual time at which the last job completed.
        total_frames: Frames across all cameras.
        frames_for_inference: Frames that underwent NN inference.
        camera_edge_bytes: Total LAN bytes (camera -> edge).
        edge_cloud_bytes: Total WAN bytes (edge -> cloud).
        edge_busy_seconds: Total edge compute seconds across the fleet.
        cloud_busy_seconds: Total cloud compute seconds.
        wan_transfer_seconds: Total WAN transfer seconds.
        edge_tiers: Per-edge-server compute report.
        wan_tiers: Per-edge-server uplink report.
        cloud_tier: Cloud compute report.
        latency_percentiles: ``{50: ..., 95: ..., 99: ...}`` end-to-end
            camera latency percentiles in seconds.
        assignments: ``camera name -> edge index``.
        outcomes: Per-camera timelines, one :class:`FleetOutcomes` record
            (empty for reports built by hand).
        sim_wall_seconds: Real wall-clock time the simulation itself took
            (perf instrumentation; ``0`` for reports built by hand).
        events_processed: Discrete events fired during the simulation.
        faults: Fault/recovery counters, present only when a fault plan
            actually did something (``None`` on every fault-free run, so
            clean reports stay bit-identical to the seed's).
    """

    policy: PlacementPolicy
    num_edge_servers: int
    num_cameras: int
    makespan_seconds: float
    total_frames: int
    frames_for_inference: int
    camera_edge_bytes: int
    edge_cloud_bytes: int
    edge_busy_seconds: float
    cloud_busy_seconds: float
    wan_transfer_seconds: float
    edge_tiers: List[TierReport]
    wan_tiers: List[TierReport]
    cloud_tier: TierReport
    latency_percentiles: Dict[int, float]
    assignments: Dict[str, int]
    outcomes: FleetOutcomes = field(
        default_factory=lambda: FleetOutcomes.starting([], [], []))
    sim_wall_seconds: float = 0.0
    events_processed: int = 0
    faults: Optional[FaultStats] = None

    @property
    def aggregate_throughput_fps(self) -> float:
        """Fleet-wide frames per second over the makespan."""
        if self.makespan_seconds <= 0:
            # An empty fleet moved nothing in no time: 0 fps, not 0/0 = inf.
            return 0.0 if self.total_frames == 0 else float("inf")
        return self.total_frames / self.makespan_seconds

    @property
    def mean_edge_utilisation(self) -> float:
        """Average utilisation of the edge compute tier."""
        if not self.edge_tiers:
            return 0.0
        return sum(tier.utilisation for tier in self.edge_tiers) / len(self.edge_tiers)

    @property
    def max_wan_queue_depth(self) -> int:
        """Deepest uplink queue observed anywhere in the fleet."""
        return max((tier.max_queue_depth for tier in self.wan_tiers), default=0)

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric view (used by sweeps and the example tables)."""
        row: Dict[str, float] = {
            "policy": self.policy.value,
            "num_edge_servers": float(self.num_edge_servers),
            "num_cameras": float(self.num_cameras),
            "makespan_seconds": self.makespan_seconds,
            "throughput_fps": self.aggregate_throughput_fps,
            "total_frames": float(self.total_frames),
            "frames_for_inference": float(self.frames_for_inference),
            "camera_edge_gb": self.camera_edge_bytes / 1e9,
            "edge_cloud_gb": self.edge_cloud_bytes / 1e9,
            "edge_busy_seconds": self.edge_busy_seconds,
            "cloud_busy_seconds": self.cloud_busy_seconds,
            "wan_transfer_seconds": self.wan_transfer_seconds,
            "mean_edge_utilisation": self.mean_edge_utilisation,
            "cloud_utilisation": self.cloud_tier.utilisation,
            "max_wan_queue_depth": float(self.max_wan_queue_depth),
            # sim_wall_seconds is intentionally omitted: as_dict() is the
            # deterministic view (same seed -> equal dicts); wall-clock perf
            # metrics are read off the report fields directly.
            "events_processed": float(self.events_processed),
        }
        for percentile, value in self.latency_percentiles.items():
            row[f"latency_p{percentile}_seconds"] = value
        return row

    def parity_mismatches(self, other: "FleetReport",
                          tolerance: float = 1e-6) -> List[str]:
        """Every way ``other`` differs from this report beyond ``tolerance``.

        This is the single definition of the parity contract (used by the
        regression tests and ``examples/fleet_scaling.py``):
        it covers the flat ``as_dict`` metrics, per-tier statistics
        *including queue depths*, placements and per-job timelines (edge,
        ingest and cloud end: the service's sessions end no single middle
        stage).  An empty list means the reports are equal.
        """
        def close(a: float, b: float) -> bool:
            if a == b:  # equal infinities too: inf - inf is nan
                return True
            if np.isnan(a) or np.isnan(b):
                return np.isnan(a) and np.isnan(b)
            return abs(a - b) <= tolerance * max(1.0, abs(a))

        def close_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            """``close`` elementwise."""
            with np.errstate(invalid="ignore"):
                return ((a == b) | (np.isnan(a) & np.isnan(b))
                        | (np.abs(a - b)
                           <= tolerance * np.maximum(1.0, np.abs(a))))

        mismatches: List[str] = []
        left, right = self.as_dict(), other.as_dict()
        for key in left:
            if isinstance(left[key], str):
                equal = left[key] == right.get(key)
            else:
                equal = key in right and close(left[key], right[key])
            if not equal:
                mismatches.append(
                    f"{key}: {left[key]!r} != {right.get(key)!r}")
        if self.assignments != other.assignments:
            mismatches.append("assignments differ")
        tiers = [("edge", self.edge_tiers, other.edge_tiers),
                 ("wan", self.wan_tiers, other.wan_tiers),
                 ("cloud", [self.cloud_tier], [other.cloud_tier])]
        for label, mine, theirs in tiers:
            if len(mine) != len(theirs):
                mismatches.append(f"{label} tier count differs")
                continue
            for index, (tier_a, tier_b) in enumerate(zip(mine, theirs)):
                if not (close(tier_a.busy_seconds, tier_b.busy_seconds)
                        and close(tier_a.utilisation, tier_b.utilisation)
                        and tier_a.max_queue_depth == tier_b.max_queue_depth
                        and tier_a.completed == tier_b.completed):
                    mismatches.append(
                        f"{label} tier {index}: {tier_a} != {tier_b}")
        mine, theirs = self.outcomes, other.outcomes
        if len(mine) != len(theirs):
            mismatches.append("outcome count differs")
        else:
            differs = ((mine.edges != theirs.edges)
                       | ~close_arrays(mine.ingest, theirs.ingest)
                       | ~close_arrays(mine.cloud_end, theirs.cloud_end))
            for index in np.flatnonzero(differs).tolist():
                row_a, row_b = mine[index], theirs[index]
                mismatches.append(
                    f"outcome {row_a.job.camera}: edge {row_a.edge_index} "
                    f"({row_a.start_seconds}, {row_a.end_seconds}) != edge "
                    f"{row_b.edge_index} ({row_b.start_seconds}, "
                    f"{row_b.end_seconds})")
        # Fault/recovery counters are part of the parity contract too: a
        # report without them is an empty counter block, so fault-free
        # runs compare clean against each other.
        mine_faults = self.faults if self.faults is not None else FaultStats()
        their_faults = (other.faults if other.faults is not None
                        else FaultStats())
        mismatches.extend(mine_faults.mismatches(their_faults))
        return mismatches


def fold_report(policy: PlacementPolicy, outcomes: FleetOutcomes, *,
                edge_stats: Sequence[StationStats], edge_workers: int,
                wan_stats: Sequence[StationStats],
                cloud_stats: StationStats, cloud_workers: int,
                camera_edge_bytes: int, edge_cloud_bytes: int,
                wan_transfer_seconds: float, sim_wall_seconds: float,
                events_processed: int,
                faults: Optional[FaultStats] = None) -> FleetReport:
    """Fold per-job timelines and per-tier statistics into a report.

    The one report assembly shared by the fleet's chain, its recurrence
    and the streaming service.  Placements are read off the record's edge
    column (failover rewrites it mid-run, and every failed-over job must
    be accounted at its final edge); jobs that never completed (a ``nan``
    cloud end — a live stream still in flight) count toward neither
    makespan nor latency.
    """
    ends = outcomes.cloud_end
    completed = ends == ends
    makespan = float(ends[completed].max()) if completed.any() else 0.0
    jobs = outcomes.jobs
    edge_tiers = [tier_report(stats, edge_workers, makespan)
                  for stats in edge_stats]
    cloud_tier = tier_report(cloud_stats, cloud_workers, makespan)
    return FleetReport(
        policy=policy,
        num_edge_servers=len(edge_tiers),
        num_cameras=len(jobs),
        makespan_seconds=makespan,
        total_frames=sum([job.num_frames for job in jobs]),
        frames_for_inference=sum([job.frames_for_inference for job in jobs]),
        camera_edge_bytes=camera_edge_bytes,
        edge_cloud_bytes=edge_cloud_bytes,
        edge_busy_seconds=sum(tier.busy_seconds for tier in edge_tiers),
        cloud_busy_seconds=cloud_tier.busy_seconds,
        wan_transfer_seconds=wan_transfer_seconds,
        edge_tiers=edge_tiers,
        wan_tiers=[tier_report(stats, 1, makespan) for stats in wan_stats],
        cloud_tier=cloud_tier,
        latency_percentiles=latency_percentiles_of(
            (ends - outcomes.ingest)[completed]),
        assignments=dict(zip([job.camera for job in jobs],
                             outcomes.edges.tolist())),
        outcomes=outcomes,
        sim_wall_seconds=sim_wall_seconds,
        events_processed=events_processed,
        faults=faults,
    )


def chain_report(chain: StageChain, policy: PlacementPolicy,
                 outcomes: FleetOutcomes, sim_wall_seconds: float,
                 faults: Optional[FaultStats] = None) -> FleetReport:
    """:func:`fold_report` over the live resources of a full stage chain."""
    wan = [link.link for link in chain.wan_links]
    return fold_report(
        policy, outcomes,
        edge_stats=[station.stats for station in chain.edge_stations],
        edge_workers=chain.edge_stations[0].capacity,
        wan_stats=[link.stats for link in chain.wan_links],
        cloud_stats=chain.cloud_station.stats,
        cloud_workers=chain.cloud_station.capacity,
        camera_edge_bytes=sum(link.link.total_bytes
                              for link in chain.lan_links.values()),
        edge_cloud_bytes=sum(link.total_bytes for link in wan),
        # The recurrence's fold: ``sum`` is compensated on Python 3.12.
        wan_transfer_seconds=reduce(
            add, [link.total_seconds for link in wan], 0.0),
        sim_wall_seconds=sim_wall_seconds,
        events_processed=chain.scheduler.events_processed,
        faults=faults)


class FleetOrchestrator:
    """Shards camera jobs over edge servers and simulates the fleet.

    Every job flows through four contended stages on one shared virtual
    clock: camera->edge LAN transfer, edge compute, edge->cloud WAN
    transfer, cloud compute.  Each edge server owns its LAN link, compute
    station and WAN uplink; the cloud tier is a single station whose worker
    count defaults to the number of edge servers (one NN serving slot per
    uplink).

    Args:
        jobs: Planned camera jobs (camera names must be unique).
        num_edge_servers: Edge servers to shard across.
        config: Bandwidths and latencies (defaults to the paper's).
        policy: Camera placement policy.
        edge_workers: Parallel compute slots per edge server.
        cloud_workers: Parallel compute slots in the cloud tier
            (default: ``num_edge_servers``).
        arrival_jitter_seconds: Upper bound of the per-camera start-time
            jitter; offsets are drawn deterministically from ``seed``.
        seed: Root seed for the arrival jitter (see :mod:`repro.rng`).
    """

    def __init__(self, jobs: Sequence[CameraJob], num_edge_servers: int = 1,
                 config: Optional[SystemConfig] = None,
                 policy: "PlacementPolicy | str" = PlacementPolicy.ROUND_ROBIN,
                 edge_workers: int = 1, cloud_workers: Optional[int] = None,
                 arrival_jitter_seconds: float = 0.0,
                 seed: Optional[int] = None) -> None:
        # An empty job list is legal: admission control may reject every
        # camera, and the orchestrator must still produce a well-formed
        # (all-zero, nan-percentile) report rather than crash downstream.
        names = [job.camera for job in jobs]
        if len(set(names)) != len(names):
            raise ClusterError(f"camera names must be unique, got {names}")
        self.num_edge_servers = whole_number(
            num_edge_servers, "num_edge_servers", ClusterError, 1)
        self.edge_workers = whole_number(edge_workers, "edge_workers",
                                         ClusterError, 1)
        self.cloud_workers = (whole_number(cloud_workers, "cloud_workers",
                                           ClusterError, 1)
                              if cloud_workers is not None
                              else self.num_edge_servers)
        real_number(arrival_jitter_seconds, "arrival_jitter_seconds",
                    ClusterError, **NON_NEGATIVE)
        if isinstance(seed, float):  # even a whole one
            raise ClusterError(f"seed must be an integer or None, got {seed!r}")
        if seed is not None:
            whole_number(seed, "seed", ClusterError)
        self.jobs = list(jobs)
        self.config = config or SystemConfig()
        self.policy = PlacementPolicy.from_name(policy)
        self.arrival_jitter_seconds = float(arrival_jitter_seconds)
        self.seed = seed

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def assign(self) -> Dict[str, int]:
        """Shard the cameras over the edge servers under the policy."""
        return dict(zip([job.camera for job in self.jobs],
                        self._placements().tolist()))

    def _placements(self) -> np.ndarray:
        """Each job's edge index under the policy, in job order.

        The load-based policies place each camera on the first edge with
        the least load so far: a heap of ``(load, edge index)`` pops the
        lowest load and, among equal loads, the lowest index.
        """
        if self.policy is PlacementPolicy.ROUND_ROBIN:
            return np.arange(len(self.jobs), dtype=np.int64) \
                % self.num_edge_servers
        estimate = self._make_load_estimator()
        loads = [(0.0, index) for index in range(self.num_edge_servers)]
        placements: List[int] = []
        for job in self.jobs:
            load, target = loads[0]
            placements.append(target)
            heapreplace(loads, (load + estimate(job), target))
        return np.array(placements, dtype=np.int64)

    def _make_load_estimator(self):
        """Estimator of the edge-local time a job occupies its server."""
        if self.policy is PlacementPolicy.LEAST_LOADED:
            return lambda job: job.edge_seconds
        # Bandwidth-aware: the LAN ingest and the WAN upload occupy the
        # server's links, so a camera with heavy transfers loads an edge even
        # when its compute footprint is small.
        lan = NetworkLink("estimate-lan", self.config.camera_edge_bandwidth_mbps,
                          self.config.camera_edge_latency_ms)
        wan = NetworkLink("estimate-wan", self.config.edge_cloud_bandwidth_mbps,
                          self.config.edge_cloud_latency_ms)
        return lambda job: (job.edge_seconds
                            + lan.transfer_seconds(job.camera_edge_bytes)
                            + wan.transfer_seconds(job.edge_cloud_bytes))

    def _arrival_offsets(self) -> List[float]:
        if self.arrival_jitter_seconds == 0:
            return [0.0] * len(self.jobs)
        rng = make_rng(self.seed, "fleet", "arrivals")
        return rng.uniform(0.0, self.arrival_jitter_seconds,
                           size=len(self.jobs)).tolist()

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def run(self) -> FleetReport:
        """Simulate the fleet and return its report.

        The fleet is computed as start/end recurrences
        (:mod:`repro.cluster.recurrence`), no event loop; its report equals
        the event loop's (:meth:`_run_chain`) bit for bit.
        """
        watch = Stopwatch().start()
        placements = self._placements()
        offsets = self._arrival_offsets()
        replay = replay_fleet(self.jobs, placements, offsets, self.config,
                              self.num_edge_servers, self.edge_workers,
                              self.cloud_workers)
        return fold_report(
            self.policy, FleetOutcomes(self.jobs, placements, replay.instants),
            edge_stats=replay.edge_stats, edge_workers=self.edge_workers,
            wan_stats=replay.wan_stats, cloud_stats=replay.cloud_stats,
            cloud_workers=self.cloud_workers,
            camera_edge_bytes=replay.camera_edge_bytes,
            edge_cloud_bytes=replay.edge_cloud_bytes,
            wan_transfer_seconds=replay.wan_transfer_seconds,
            sim_wall_seconds=watch.stop(),
            # The events the chain fires: an ingest and four completions.
            events_processed=EVENTS_PER_JOB * len(self.jobs))

    def _run_chain(self) -> FleetReport:
        """The event loop: every job is one unit on one :class:`StageChain`
        (the definition the recurrence is tested against)."""
        watch = Stopwatch().start()
        scheduler = EventScheduler()
        chain = StageChain(scheduler, self.config,
                           range(self.num_edge_servers), self.edge_workers,
                           self.cloud_workers, on_finish=_JobRun.finish)
        offsets = self._arrival_offsets()
        outcomes = FleetOutcomes.starting(self.jobs, self._placements(),
                                          offsets)
        for index, offset in enumerate(offsets):
            chain.submit_at(offset, _JobRun(outcomes, index, scheduler))
        scheduler.run()
        return chain_report(chain, self.policy, outcomes, watch.stop())
