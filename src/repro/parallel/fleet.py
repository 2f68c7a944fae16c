"""Multiprocess fleet execution: shard per-edge pipelines across processes.

The discrete-event fleet simulation decomposes cleanly along the edge
servers: every :class:`~repro.cluster.fleet.CameraJob` flows through its
edge's *private* resources (camera->edge LAN link, edge compute station,
edge->cloud WAN uplink) before touching the one resource shared by the
whole fleet — the cloud compute station.  Jobs placed on different edges
therefore interact **only** at the cloud tier, which is what makes an
exact parallel decomposition possible:

1. **Workers** (one task per edge server, dealt to a
   ``ProcessPoolExecutor`` longest first) run their edge's jobs through
   an *edge-only* :class:`~repro.cluster.topology.StageChain` — the same
   stage chain the single-process fleet runs, minus the cloud station —
   on a private virtual clock, producing each job's *cloud arrival time*
   plus the edge's tier statistics.  Virtual timestamps inside one edge's
   pipeline are chains of float additions over that edge's own service
   durations, and the shared scheduler only ever *orders* events across
   edges — it never changes their time values — so the isolated per-edge
   simulation reproduces the joint simulation's arrival times bit for bit.
2. **The parent** replays the cloud station once, feeding the collected
   arrivals into a fresh scheduler.  The joint simulation fires
   simultaneous events in insertion order, and a WAN-completion event is
   inserted the moment its transfer *starts* service — so equal-time
   arrivals are replayed ordered by the chain of stage service-start
   times the workers recorded (WAN start, then edge start, then LAN
   start, then the arrival offset, then job index: one stable
   ``np.lexsort``, :func:`replay_order`).  Each level resolves the tie
   exactly as the shared scheduler's sequence numbers would; jobs still
   tied through the whole chain have identical timing histories, so
   within one edge FIFO order is job order and across edges the ingest
   events (scheduled in job order) decide — job index again.
3. **The merge** assembles the familiar :class:`FleetReport` from the
   per-edge results (sorted by edge index, i.e. deterministically
   *regardless of worker completion order*) and the cloud replay.

There is one way a sharded fleet runs and nothing to configure about it.
Per-job numbers cross the pool boundary as packed numpy columns through a
:mod:`repro.parallel.transport` picked from what the platform offers:
shared-memory segments where they can be created, the pool's pickle
channel where they cannot.  Edge tasks are dealt to the workers up front,
heaviest first — every placement policy leaves the edges within a few
percent of one another, so there is no skew for a dynamic queue to fix.

``SystemConfig.fleet_workers == 1`` bypasses all of this and runs the
single-process path unchanged; the parity of the two is pinned at
tolerance 0.0 by ``tests/cluster/test_parallel_fleet.py``,
``tests/parallel/test_fleet_scaleout.py`` and the batch == sharded ==
service property test of ``tests/cluster/test_topology.py``.  When process
pools are unavailable (restricted sandboxes), the decomposed simulation
runs inline in the parent — same results, no parallelism.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, FrozenSet, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from ..cluster.topology import StageChain, StageUnit
from ..config import SystemConfig
from ..dataflow.scheduler import EventScheduler, ServiceStation, StationStats
from ..errors import ClusterError
from ..perf import Stopwatch
from .transport import ShardHandle, open_handle, pick_transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only.
    from ..cluster.fleet import CameraJob, FleetOrchestrator, FleetReport


@dataclass(frozen=True)
class EdgeShardStats:
    """The statistics of one edge's stage-1..3 simulation.

    The per-job numbers (arrivals and the stage-start tie chain) travel
    as result columns, so this small fixed-size record is all the pool
    channel carries per edge.

    Attributes:
        edge_index: The simulated edge server.
        lan_stats: Camera->edge link station statistics.
        edge_stats: Edge compute station statistics.
        wan_stats: Edge->cloud uplink station statistics.
        lan_bytes: Bytes moved camera->edge.
        wan_bytes: Bytes moved edge->cloud.
        wan_seconds: Total WAN transfer seconds (uncontended accounting).
        events_processed: Events fired by the edge's private scheduler.
    """

    edge_index: int
    lan_stats: StationStats
    edge_stats: StationStats
    wan_stats: StationStats
    lan_bytes: int
    wan_bytes: int
    wan_seconds: float
    events_processed: int


def empty_edge_result(edge_index: int) -> EdgeShardStats:
    """The result of an edge server that received no jobs.

    All-zero statistics: an idle edge contributes empty tiers (utilisation
    0, no queueing) to the merged report rather than being skipped, so
    fleets with more edges than cameras keep one tier entry per server.
    """
    return EdgeShardStats(edge_index=edge_index, lan_stats=StationStats(),
                          edge_stats=StationStats(), wan_stats=StationStats(),
                          lan_bytes=0, wan_bytes=0, wan_seconds=0.0,
                          events_processed=0)


class _RowCosts(NamedTuple):
    """Stage costs of one packed-array job row (native Python scalars)."""

    camera_edge_bytes: int
    edge_seconds: float
    edge_cloud_bytes: int


class _ShardRow(StageUnit):
    """One job inside an edge-only chain, recording what the cloud replay
    needs: its cloud-arrival instant and its stage service-start instants.

    The shard's chain holds a single edge, so every row sits at position 0.
    """

    __slots__ = ("arrival", "starts")

    edge_index = 0
    lan_key = 0

    def __init__(self, work: _RowCosts) -> None:
        super().__init__(work)
        self.arrival = float("nan")
        self.starts: Dict[str, float] = {}


#: Names of the per-job result columns (indexed by *original* job index).
_RESULT_COLUMNS = ("arrival", "wan_start", "edge_start", "lan_start")


@dataclass(frozen=True)
class ShardWorkerSpec:
    """Everything one pool worker needs to simulate its share of the fleet.

    Attributes:
        jobs_handle: The packed per-job columns of
            :func:`_pack_job_columns`, row-grouped by task.
        results_handle: Parent-allocated result bundle the worker writes in
            place (shared memory), or ``None`` — results then return
            through the pool channel.
        task_edges: Edge index of every task.
        task_ptr: CSR row pointers: task ``t`` owns job rows
            ``task_ptr[t]:task_ptr[t + 1]``.
        assigned: Task ids this worker runs, in order.
        config: Bandwidths and latencies of the fleet.
        edge_workers: Parallel compute slots per edge station.
        kill_edges: Fault-injection poison (``WorkerKill`` specs of the
            orchestrator's fault plan): a *pool worker* beginning one of
            these edges exits hard, as a real mid-run worker crash would.
            The parent's inline re-execution simulates normally, so the
            recovered report is bit-identical.
    """

    jobs_handle: ShardHandle
    results_handle: Optional[ShardHandle]
    task_edges: Tuple[int, ...]
    task_ptr: Tuple[int, ...]
    assigned: Tuple[int, ...]
    config: SystemConfig
    edge_workers: int
    kill_edges: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class ShardOutcome:
    """What one shard worker sends back through the pool channel.

    Attributes:
        stats: Per-task statistics, in execution order.
        results: Per-job result columns for the worker's rows, keyed as
            ``{"job_index": ..., "arrival": ..., ...}`` — only when no
            shared result bundle was available (pickle transport).
    """

    stats: Tuple[EdgeShardStats, ...]
    results: Optional[Dict[str, np.ndarray]]


def _simulate_columns(edge_index: int, config: SystemConfig,
                      edge_workers: int, jobs: Dict[str, np.ndarray],
                      low: int, high: int
                      ) -> Tuple[EdgeShardStats, Dict[str, List[float]]]:
    """Simulate one edge's LAN -> edge compute -> WAN pipeline in isolation.

    The edge's jobs are rows ``low:high`` of the packed job columns, run
    as units of an edge-only :class:`~repro.cluster.topology.StageChain`.
    A row's WAN delivery is its cloud arrival; every stage's *service
    start* is recorded too — the instants the joint simulation would
    insert the corresponding completion events, which the cloud replay
    needs to break arrival-time ties exactly.

    Scalars are pulled out of the arrays as native Python values before
    entering the event chain, so every downstream float operation is the
    same operation (on the same bits) the single-process loop performs on
    the ``CameraJob`` fields — the columns change how numbers travel,
    never what they are.
    """
    scheduler = EventScheduler()

    def _arrived(row: _ShardRow) -> None:
        row.arrival = scheduler.now

    def _stage_started(row: _ShardRow) -> None:
        row.starts[row.stage] = scheduler.now

    chain = StageChain(scheduler, config, (edge_index,), edge_workers,
                       on_finish=_arrived, on_stage_start=_stage_started)
    rows = [_ShardRow(_RowCosts(*costs)) for costs in zip(
        jobs["camera_edge_bytes"][low:high].tolist(),
        jobs["edge_seconds"][low:high].tolist(),
        jobs["edge_cloud_bytes"][low:high].tolist())]
    for row, offset in zip(rows, jobs["offset"][low:high].tolist()):
        chain.submit_at(offset, row)
    scheduler.run()
    lan, wan = chain.lan_links[0], chain.wan_links[0]
    stats = EdgeShardStats(
        edge_index=edge_index,
        lan_stats=lan.stats, edge_stats=chain.edge_stations[0].stats,
        wan_stats=wan.stats,
        lan_bytes=lan.link.total_bytes, wan_bytes=wan.link.total_bytes,
        wan_seconds=wan.link.total_seconds,
        events_processed=scheduler.events_processed)
    columns: Dict[str, List[float]] = {
        "job_index": jobs["job_index"][low:high].tolist(),
        "arrival": [row.arrival for row in rows],
        "wan_start": [row.starts["wan"] for row in rows],
        "edge_start": [row.starts["edge"] for row in rows],
        "lan_start": [row.starts["lan"] for row in rows],
    }
    return stats, columns


def run_fleet_shard(spec: ShardWorkerSpec) -> ShardOutcome:
    """Pool-worker entry point: simulate the worker's assigned edges.

    Must stay importable at module level for the process pool.  Per-job
    results are written into the shared bundle when one exists and
    returned through the channel otherwise.
    """
    stats: List[EdgeShardStats] = []
    local: Dict[str, List[float]] = {name: [] for name in
                                     ("job_index",) + _RESULT_COLUMNS}
    with open_handle(spec.jobs_handle) as jobs:
        results_attachment = (open_handle(spec.results_handle)
                              if spec.results_handle is not None else None)
        try:
            shared = (results_attachment.arrays
                      if results_attachment is not None else None)
            for task in spec.assigned:
                edge_index = spec.task_edges[task]
                if (edge_index in spec.kill_edges
                        and multiprocessing.parent_process() is not None):
                    # Injected worker crash: die like a SIGKILL'd process,
                    # not an exception the pool could pickle back — mid
                    # shard, exactly when a real crash would strand
                    # unfinished work for the parent to redo.  Only ever
                    # taken inside a pool worker.
                    os._exit(17)
                shard_stats, columns = _simulate_columns(
                    edge_index, spec.config, spec.edge_workers, jobs,
                    spec.task_ptr[task], spec.task_ptr[task + 1])
                stats.append(shard_stats)
                if shared is not None:
                    # Disjoint slots per job, so concurrent writers never
                    # race: scatter straight into the parent's memory.
                    for name in _RESULT_COLUMNS:
                        shared[name][columns["job_index"]] = columns[name]
                else:
                    for name in local:
                        local[name].extend(columns[name])
        finally:
            if results_attachment is not None:
                results_attachment.close()
    returned = (None if spec.results_handle is not None
                else {"job_index": np.asarray(local["job_index"],
                                              dtype=np.int64),
                      **{name: np.asarray(local[name], dtype=np.float64)
                         for name in _RESULT_COLUMNS}})
    return ShardOutcome(stats=tuple(stats), results=returned)


def _pack_job_columns(jobs: Sequence["CameraJob"], offsets: Sequence[float],
                      edge_job_lists: Sequence[Tuple[int, Sequence[int]]]
                      ) -> Tuple[Dict[str, np.ndarray], Tuple[int, ...]]:
    """Pack the per-job fields into task-grouped columns plus CSR pointers."""
    order: List[int] = []
    pointers = [0]
    for _, job_indices in edge_job_lists:
        order.extend(job_indices)
        pointers.append(len(order))
    columns = {
        "job_index": np.asarray(order, dtype=np.int64),
        "offset": np.asarray([offsets[index] for index in order],
                             dtype=np.float64),
        # CameraJob admits only whole byte counts below 2**63, so the
        # int64 columns hold exactly the numbers the serial loop reads.
        "camera_edge_bytes": np.asarray(
            [jobs[index].camera_edge_bytes for index in order],
            dtype=np.int64),
        "edge_seconds": np.asarray(
            [jobs[index].edge_seconds for index in order], dtype=np.float64),
        "edge_cloud_bytes": np.asarray(
            [jobs[index].edge_cloud_bytes for index in order],
            dtype=np.int64),
    }
    return columns, tuple(pointers)


def _run_shard_fleet(jobs: Sequence["CameraJob"],
                     edge_job_lists: Sequence[Tuple[int, Sequence[int]]],
                     offsets: Sequence[float], config: SystemConfig,
                     edge_workers: int, fleet_workers: int,
                     kill_edges: FrozenSet[int]
                     ) -> Tuple[Dict[int, EdgeShardStats],
                                Dict[str, np.ndarray]]:
    """Execute the edge phase: one task per edge, dealt over the workers.

    Returns ``(stats by edge, result columns by name)``.  The result
    columns are indexed by original job position and are owned by the
    caller (copied out of any shared segment before cleanup).
    """
    num_tasks = len(edge_job_lists)
    num_jobs = len(jobs)
    results = {name: np.zeros(num_jobs, dtype=np.float64)
               for name in _RESULT_COLUMNS}
    stats_by_edge: Dict[int, EdgeShardStats] = {}
    if num_tasks == 0:
        return stats_by_edge, results

    columns, task_ptr = _pack_job_columns(jobs, offsets, edge_job_lists)
    task_edges = tuple(edge for edge, _ in edge_job_lists)
    # Static shards, heaviest task first: the wall-clock cost of a task
    # scales with its event count, i.e. its job count, and dealing the
    # sorted tasks round-robin keeps the workers' totals level.
    heaviest_first = sorted(
        range(num_tasks),
        key=lambda task: (-len(edge_job_lists[task][1]), task))
    num_workers = min(fleet_workers, num_tasks)

    with pick_transport() as channel:
        jobs_handle = channel.publish(columns)
        results_handle = (channel.allocate(
            {name: ("float64", (num_jobs,)) for name in _RESULT_COLUMNS})
            if channel.is_shared else None)
        specs = [
            ShardWorkerSpec(
                jobs_handle=jobs_handle, results_handle=results_handle,
                task_edges=task_edges, task_ptr=task_ptr,
                assigned=tuple(heaviest_first[slot::num_workers]),
                config=config, edge_workers=edge_workers,
                kill_edges=kill_edges)
            for slot in range(num_workers)
        ]

        outcomes: List[ShardOutcome] = []
        if len(specs) == 1:
            outcomes.append(run_fleet_shard(specs[0]))
        else:
            try:
                with ProcessPoolExecutor(max_workers=len(specs)) as pool:
                    futures = [pool.submit(run_fleet_shard, spec)
                               for spec in specs]
                    for future in as_completed(futures):
                        # A worker dying mid-run (injected WorkerKill,
                        # OOM kill, segfault) breaks the whole pool;
                        # keep every outcome that already returned and
                        # redo only the lost tasks below.
                        try:
                            outcomes.append(future.result())
                        except BrokenProcessPool:
                            pass
            except (OSError, PermissionError, RuntimeError):
                # Restricted environments (forbidden fork/spawn) fall
                # back to the same decomposed simulation run inline:
                # identical results, just no process-level parallelism.
                outcomes = []

        for outcome in outcomes:
            for shard_stats in outcome.stats:
                stats_by_edge[shard_stats.edge_index] = shard_stats
            if outcome.results is not None:
                rows = outcome.results["job_index"]
                for name in _RESULT_COLUMNS:
                    results[name][rows] = outcome.results[name]

        if results_handle is not None:
            shared = channel.attach(results_handle)
            for name in _RESULT_COLUMNS:
                # Copy out before the segment is unlinked (the caller
                # owns plain arrays, never shared views) and before
                # any inline redo below, which must not be clobbered
                # by the segment's unwritten zeros.
                np.copyto(results[name], shared[name])

        # Redo whatever the pool lost, inline and in deterministic
        # order (kill poison only fires inside pool workers, and the
        # per-task values are pure functions of the inputs, so
        # rewriting an already-written slot is idempotent).
        missing = [task for task, edge in enumerate(task_edges)
                   if edge not in stats_by_edge]
        if missing:
            jobs_view = channel.attach(jobs_handle)
            for task in missing:
                shard_stats, recomputed = _simulate_columns(
                    task_edges[task], config, edge_workers, jobs_view,
                    task_ptr[task], task_ptr[task + 1])
                stats_by_edge[shard_stats.edge_index] = shard_stats
                for name in _RESULT_COLUMNS:
                    results[name][recomputed["job_index"]] = recomputed[name]
    return stats_by_edge, results


# --------------------------------------------------------------------- #
# Cloud replay
# --------------------------------------------------------------------- #

def replay_order(wan_starts: np.ndarray, edge_starts: np.ndarray,
                 lan_starts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The cloud replay's insertion order: job indices sorted by tie chain.

    One ``np.lexsort`` over ``(wan start, edge start, lan start, arrival
    offset)``; the sort is stable, so jobs equal through the whole chain
    stay in ascending job index — the order the joint scheduler's
    sequence numbers impose on their WAN-completion events.
    """
    return np.lexsort((offsets, lan_starts, edge_starts, wan_starts))


def replay_cloud(arrivals: Sequence[float], service_seconds: Sequence[float],
                 cloud_workers: int, insert_times: Sequence[float],
                 order: Sequence[int]
                 ) -> Tuple[List[float], StationStats, int]:
    """Replay the shared cloud station over the collected arrivals.

    Args:
        arrivals: Per-job cloud arrival (WAN completion) time.
        service_seconds: Per-job cloud compute time.
        cloud_workers: Cloud station capacity.
        insert_times: Per-job instant the joint simulation inserted the
            job's WAN-completion event: its WAN service start.
        order: Job indices in the order those insertions happened
            (:func:`replay_order`).  The joint scheduler fires
            simultaneous events in insertion order, so this is what
            breaks equal-``arrival`` ties.

    Returns:
        ``(end_seconds per job, cloud station stats, finish events)`` where
        finish events excludes the arrival re-fires (those stand in for the
        workers' WAN-completion events and must not be double counted).
    """
    scheduler = EventScheduler()
    cloud = ServiceStation(scheduler, "cloud", capacity=cloud_workers)
    ends: List[float] = [float("nan")] * len(arrivals)

    def _finish(job_index: int) -> None:
        ends[job_index] = scheduler.now

    def _submit(job_index: int) -> None:
        cloud.submit(service_seconds[job_index], on_complete=_finish,
                     payload=job_index)

    def _insert_arrival(job_index: int) -> None:
        scheduler.schedule_at(arrivals[job_index], _submit, job_index)

    # Each arrival event must enter the heap at the instant the joint
    # simulation inserted the corresponding WAN-completion event — its WAN
    # service start — or its sequence number (and hence its order against
    # cloud-completion events firing at the same virtual time, which are
    # inserted mid-run at cloud service start) comes out wrong.  A starter
    # event at the WAN start time performs the insertion; the starters
    # themselves are pre-inserted in tie-chain order so equal start times
    # keep the joint order too.
    for job_index in order:
        scheduler.schedule_at(insert_times[job_index],
                              _insert_arrival, job_index)
    scheduler.run()
    # The starter and arrival events are replay bookkeeping standing in for
    # the workers' WAN-completion events; only cloud completions count.
    finish_events = scheduler.events_processed - 2 * len(arrivals)
    return ends, cloud.stats, finish_events


# --------------------------------------------------------------------- #
# Orchestrated parallel run
# --------------------------------------------------------------------- #

def run_parallel(orchestrator: "FleetOrchestrator",
                 fleet_workers: int) -> "FleetReport":
    """Execute a fleet simulation across ``fleet_workers`` processes.

    Produces a report equal to ``orchestrator.run()``'s (bit-identical:
    the same float operations on the same values) with per-edge pipelines
    simulated concurrently.  The merge is deterministic regardless of
    worker completion order: results are keyed and combined by edge index.
    """
    from ..cluster.fleet import JobOutcome, fold_report
    if fleet_workers < 1:
        raise ClusterError(f"fleet_workers must be >= 1, got {fleet_workers}")
    watch = Stopwatch().start()
    jobs = orchestrator.jobs
    assignments = orchestrator.assign()
    offsets = orchestrator._arrival_offsets()

    per_edge: Dict[int, List[int]] = {
        index: [] for index in range(orchestrator.num_edge_servers)}
    for job_index, job in enumerate(jobs):
        per_edge[assignments[job.camera]].append(job_index)
    edge_job_lists = [(edge_index, job_indices)
                      for edge_index, job_indices in sorted(per_edge.items())
                      if job_indices]
    plan = orchestrator.fault_plan
    kill_edges = frozenset(spec.edge_index for spec in plan.worker_kills
                           ) if plan is not None else frozenset()

    stats_by_edge, columns = _run_shard_fleet(
        jobs, edge_job_lists, offsets, orchestrator.config,
        orchestrator.edge_workers, fleet_workers, kill_edges)
    ordered = [stats_by_edge.get(edge_index) or empty_edge_result(edge_index)
               for edge_index in range(orchestrator.num_edge_servers)]

    order = replay_order(columns["wan_start"], columns["edge_start"],
                         columns["lan_start"],
                         np.asarray(offsets, dtype=np.float64))
    ends, cloud_stats, cloud_events = replay_cloud(
        columns["arrival"].tolist(), [job.cloud_seconds for job in jobs],
        orchestrator.cloud_workers,
        insert_times=columns["wan_start"].tolist(), order=order.tolist())

    outcomes = [
        JobOutcome(job=job, edge_index=assignments[job.camera],
                   start_seconds=offset, end_seconds=end)
        for job, offset, end in zip(jobs, offsets, ends)
    ]
    return fold_report(
        orchestrator.policy, outcomes,
        edge_stats=[result.edge_stats for result in ordered],
        edge_workers=orchestrator.edge_workers,
        wan_stats=[result.wan_stats for result in ordered],
        cloud_stats=cloud_stats, cloud_workers=orchestrator.cloud_workers,
        camera_edge_bytes=sum(result.lan_bytes for result in ordered),
        edge_cloud_bytes=sum(result.wan_bytes for result in ordered),
        wan_transfer_seconds=sum(result.wan_seconds for result in ordered),
        sim_wall_seconds=watch.stop(),
        events_processed=(sum(result.events_processed for result in ordered)
                          + cloud_events))
