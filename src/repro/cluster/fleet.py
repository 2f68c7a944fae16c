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
  orchestrator, the sharded fleet and the streaming service all drive;
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
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import SystemConfig, resolve_worker_count
from ..dataflow.scheduler import EventScheduler, StationStats
from ..errors import ClusterError, ConfigurationError
from ..faults.injector import FleetFaultDriver
from ..faults.plan import FaultPlan
from ..faults.stats import FaultStats
from ..net.link import NetworkLink
from ..perf import Stopwatch
from ..rng import make_rng
from .topology import StageChain, StageUnit

#: Latency percentiles reported by the fleet simulator.
LATENCY_PERCENTILES = (50, 95, 99)


def latency_percentiles_of(latencies: Sequence[float]) -> Dict[int, float]:
    """The report's latency percentiles over ``latencies``.

    An empty sample — a fleet whose admission control rejected every camera,
    or a service snapshot taken before any completion — yields ``nan`` at
    every percentile rather than raising, so report assembly stays
    well-formed (``np.percentile`` errors on empty input).
    """
    if len(latencies) == 0:
        return {percentile: float("nan") for percentile in LATENCY_PERCENTILES}
    return {percentile: float(np.percentile(latencies, percentile))
            for percentile in LATENCY_PERCENTILES}


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
        transfer_description: Label recorded on the WAN transfer.
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
    transfer_description: str = ""
    accuracy: float = float("nan")

    def __post_init__(self) -> None:
        if self.num_frames < 0 or self.frames_for_inference < 0:
            raise ClusterError("frame counts must be >= 0")
        # Chained comparisons so nan (which passes ``< 0``) and inf are
        # refused here rather than poisoning every downstream statistic.
        if not (0 <= self.edge_seconds < math.inf
                and 0 <= self.cloud_seconds < math.inf):
            raise ClusterError("compute seconds must be finite and >= 0")
        # Byte counts are whole bytes: the sharded fleet ships them as
        # int64 columns, where a fraction would be floored (and the serial
        # loop would not floor it) and 2**63 does not fit.
        for value in (self.camera_edge_bytes, self.edge_cloud_bytes):
            if not (0 <= value < 2 ** 63 and value == int(value)):
                raise ClusterError(
                    "transfer bytes must be whole numbers in [0, 2**63), "
                    f"got {value!r}")


@dataclass
class JobOutcome:
    """Timeline of one camera job through the fleet.

    Attributes:
        job: The planned job.
        edge_index: Edge server the camera was placed on.
        start_seconds: Virtual time the camera started streaming.
        end_seconds: Virtual time the cloud finished its inference.
    """

    job: CameraJob
    edge_index: int
    start_seconds: float
    end_seconds: float = float("nan")

    @property
    def latency_seconds(self) -> float:
        """End-to-end latency of the camera's footage through the fleet."""
        return self.end_seconds - self.start_seconds


class _JobRun(StageUnit):
    """One camera job moving through the fleet's stage chain.

    The job's placement lives on its :class:`JobOutcome` (failover
    rewrites it there, and the report reads it there), so the chain's
    per-stage ``edge_index`` read goes through to it.
    """

    __slots__ = ("outcome",)

    def __init__(self, outcome: JobOutcome) -> None:
        super().__init__(outcome.job)
        self.outcome = outcome

    @property
    def edge_index(self) -> int:
        return self.outcome.edge_index

    #: One shared LAN link per edge: a job ingests over its edge's.
    lan_key = edge_index

    @property
    def lan_description(self) -> str:
        return f"ingest:{self.work.camera}"

    @property
    def wan_description(self) -> str:
        return self.work.transfer_description or self.work.camera


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
        outcomes: Per-camera timelines.
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
    outcomes: List[JobOutcome] = field(default_factory=list)
    sim_wall_seconds: float = 0.0
    events_processed: int = 0
    faults: Optional[FaultStats] = None

    @property
    def events_per_second(self) -> float:
        """Scheduler event throughput of the simulation (perf metric)."""
        if self.sim_wall_seconds <= 0:
            return 0.0
        return self.events_processed / self.sim_wall_seconds

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

        This is the single definition of the multiprocess parity contract
        (used by the regression tests and ``examples/fleet_scaling.py``):
        it covers the flat ``as_dict`` metrics, per-tier statistics
        *including queue depths*, placements and per-job timelines.  An
        empty list means the reports are equal.
        """
        def close(a: float, b: float) -> bool:
            if np.isnan(a) or np.isnan(b):
                return np.isnan(a) and np.isnan(b)
            return abs(a - b) <= tolerance * max(1.0, abs(a))

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
        if len(self.outcomes) != len(other.outcomes):
            mismatches.append("outcome count differs")
        else:
            for outcome_a, outcome_b in zip(self.outcomes, other.outcomes):
                if not (outcome_a.edge_index == outcome_b.edge_index
                        and close(outcome_a.start_seconds,
                                  outcome_b.start_seconds)
                        and close(outcome_a.end_seconds,
                                  outcome_b.end_seconds)):
                    mismatches.append(
                        f"outcome {outcome_a.job.camera}: "
                        f"({outcome_a.start_seconds}, {outcome_a.end_seconds})"
                        f" != ({outcome_b.start_seconds}, "
                        f"{outcome_b.end_seconds})")
        # Fault/recovery counters are part of the parity contract too: a
        # report without them is an empty counter block, so fault-free
        # runs compare clean against each other.
        mine_faults = self.faults if self.faults is not None else FaultStats()
        their_faults = (other.faults if other.faults is not None
                        else FaultStats())
        mismatches.extend(mine_faults.mismatches(their_faults))
        return mismatches


def fold_report(policy: PlacementPolicy, outcomes: List[JobOutcome], *,
                edge_stats: Sequence[StationStats], edge_workers: int,
                wan_stats: Sequence[StationStats],
                cloud_stats: StationStats, cloud_workers: int,
                camera_edge_bytes: int, edge_cloud_bytes: int,
                wan_transfer_seconds: float, sim_wall_seconds: float,
                events_processed: int,
                faults: Optional[FaultStats] = None) -> FleetReport:
    """Fold per-job timelines and per-tier statistics into a report.

    The one report assembly shared by the single-process fleet, the
    multiprocess merge and the streaming service.  Placements are read
    off the outcomes (failover rewrites ``outcome.edge_index`` mid-run,
    and every failed-over job must be accounted at its final edge);
    outcomes that never completed (``end_seconds`` is ``nan`` — a live
    stream still in flight) count toward neither makespan nor latency.
    """
    completed = [outcome for outcome in outcomes
                 if outcome.end_seconds == outcome.end_seconds]
    makespan = max((outcome.end_seconds for outcome in completed),
                   default=0.0)
    edge_tiers = [tier_report(stats, edge_workers, makespan)
                  for stats in edge_stats]
    cloud_tier = tier_report(cloud_stats, cloud_workers, makespan)
    return FleetReport(
        policy=policy,
        num_edge_servers=len(edge_tiers),
        num_cameras=len(outcomes),
        makespan_seconds=makespan,
        total_frames=sum(outcome.job.num_frames for outcome in outcomes),
        frames_for_inference=sum(outcome.job.frames_for_inference
                                 for outcome in outcomes),
        camera_edge_bytes=camera_edge_bytes,
        edge_cloud_bytes=edge_cloud_bytes,
        edge_busy_seconds=sum(tier.busy_seconds for tier in edge_tiers),
        cloud_busy_seconds=cloud_tier.busy_seconds,
        wan_transfer_seconds=wan_transfer_seconds,
        edge_tiers=edge_tiers,
        wan_tiers=[tier_report(stats, 1, makespan) for stats in wan_stats],
        cloud_tier=cloud_tier,
        latency_percentiles=latency_percentiles_of(
            sorted(outcome.latency_seconds for outcome in completed)),
        assignments={outcome.job.camera: outcome.edge_index
                     for outcome in outcomes},
        outcomes=outcomes,
        sim_wall_seconds=sim_wall_seconds,
        events_processed=events_processed,
        faults=faults,
    )


def chain_report(chain: StageChain, policy: PlacementPolicy,
                 outcomes: List[JobOutcome], sim_wall_seconds: float,
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
        wan_transfer_seconds=sum(link.total_seconds for link in wan),
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
        fleet_workers: Worker processes executing the simulation (default:
            ``config.fleet_workers``).  ``1`` runs the original
            single-process event loop; larger values shard the per-edge
            pipelines across a process pool (see :mod:`repro.parallel`)
            and produce the same report.
        faults: Optional :class:`~repro.faults.FaultPlan` injected into
            the run (edge crashes fail unfinished jobs over to healthy
            edges; WAN windows degrade uplinks).  ``None`` — the default
            everywhere — schedules nothing and leaves the event sequence
            bit-identical to the seed.  Scheduler-injected faults force
            the single-process reference loop (failover moves work across
            edges, which the per-edge decomposition cannot express);
            worker kills are honoured by the multiprocess path.
    """

    def __init__(self, jobs: Sequence[CameraJob], num_edge_servers: int = 1,
                 config: Optional[SystemConfig] = None,
                 policy: "PlacementPolicy | str" = PlacementPolicy.ROUND_ROBIN,
                 edge_workers: int = 1, cloud_workers: Optional[int] = None,
                 arrival_jitter_seconds: float = 0.0,
                 seed: Optional[int] = None,
                 fleet_workers: Optional[int] = None,
                 faults: Optional[FaultPlan] = None) -> None:
        # An empty job list is legal: admission control may reject every
        # camera, and the orchestrator must still produce a well-formed
        # (all-zero, nan-percentile) report rather than crash downstream.
        names = [job.camera for job in jobs]
        if len(set(names)) != len(names):
            raise ClusterError(f"camera names must be unique, got {names}")
        if num_edge_servers < 1:
            raise ClusterError("num_edge_servers must be >= 1")
        if edge_workers < 1:
            raise ClusterError("edge_workers must be >= 1")
        if not 0 <= arrival_jitter_seconds < math.inf:
            raise ClusterError(
                "arrival_jitter_seconds must be finite and >= 0")
        self.jobs = list(jobs)
        self.num_edge_servers = int(num_edge_servers)
        self.config = config or SystemConfig()
        self.policy = PlacementPolicy.from_name(policy)
        self.edge_workers = int(edge_workers)
        self.cloud_workers = (int(cloud_workers) if cloud_workers is not None
                              else self.num_edge_servers)
        if self.cloud_workers < 1:
            raise ClusterError("cloud_workers must be >= 1")
        self.arrival_jitter_seconds = float(arrival_jitter_seconds)
        self.seed = seed
        self.fault_plan = faults
        if faults is not None:
            faults.validate_for(self.num_edge_servers)
        try:
            self.fleet_workers = resolve_worker_count(
                fleet_workers if fleet_workers is not None
                else self.config.fleet_workers, "fleet_workers")
        except ConfigurationError as error:
            raise ClusterError(str(error)) from error

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def assign(self) -> Dict[str, int]:
        """Shard the cameras over the edge servers under the policy."""
        if self.policy is PlacementPolicy.ROUND_ROBIN:
            return {job.camera: index % self.num_edge_servers
                    for index, job in enumerate(self.jobs)}
        estimate = self._make_load_estimator()
        loads = [0.0] * self.num_edge_servers
        assignments: Dict[str, int] = {}
        for job in self.jobs:
            target = min(range(self.num_edge_servers), key=lambda i: loads[i])
            assignments[job.camera] = target
            loads[target] += estimate(job)
        return assignments

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
        return [float(value) for value in
                rng.uniform(0.0, self.arrival_jitter_seconds, size=len(self.jobs))]

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def run(self) -> FleetReport:
        """Simulate the fleet and return its report.

        With ``fleet_workers > 1`` the per-edge pipelines are simulated in
        worker processes and merged deterministically (see
        :func:`repro.parallel.run_parallel`); the report is the same either
        way, the single-process path below remains the reference.
        """
        if self.fleet_workers > 1 and (
                self.fault_plan is None
                or not self.fault_plan.has_scheduler_faults):
            from ..parallel import run_parallel
            return run_parallel(self, self.fleet_workers)
        return self._run_single_process()

    def _run_single_process(self) -> FleetReport:
        """The reference single-process event loop (``fleet_workers=1``):
        every job is one unit on one :class:`StageChain`."""
        watch = Stopwatch().start()
        scheduler = EventScheduler()

        def _finish(run: _JobRun) -> None:
            run.outcome.end_seconds = scheduler.now

        chain = StageChain(scheduler, self.config,
                           range(self.num_edge_servers), self.edge_workers,
                           self.cloud_workers, on_finish=_finish)
        driver: Optional[FleetFaultDriver] = None
        if (self.fault_plan is not None
                and self.fault_plan.has_scheduler_faults):
            driver = FleetFaultDriver(chain, self.fault_plan)
            chain.on_fail = driver.on_job_failed

        assignments = self.assign()
        outcomes: List[JobOutcome] = []
        for job, offset in zip(self.jobs, self._arrival_offsets()):
            outcome = JobOutcome(job=job, edge_index=assignments[job.camera],
                                 start_seconds=offset)
            outcomes.append(outcome)
            run = _JobRun(outcome)
            if driver is not None:
                driver.register(run)
            chain.submit_at(offset, run)
        scheduler.run()
        return chain_report(
            chain, self.policy, outcomes, watch.stop(),
            faults=(driver.stats if driver is not None
                    and driver.stats.has_activity() else None))


def sweep_edge_counts(jobs: Sequence[CameraJob],
                      edge_counts: Sequence[int],
                      config: Optional[SystemConfig] = None,
                      policy: "PlacementPolicy | str" = PlacementPolicy.LEAST_LOADED,
                      arrival_jitter_seconds: float = 0.0,
                      seed: Optional[int] = None) -> Dict[int, FleetReport]:
    """Run the same fleet over several edge-server counts.

    Returns:
        ``{num_edge_servers: report}`` in ascending edge-count order.
    """
    reports: Dict[int, FleetReport] = {}
    for count in sorted(set(int(count) for count in edge_counts)):
        orchestrator = FleetOrchestrator(
            jobs, num_edge_servers=count, config=config, policy=policy,
            arrival_jitter_seconds=arrival_jitter_seconds, seed=seed)
        reports[count] = orchestrator.run()
    return reports
