"""Multiprocess fleet execution: shard per-edge pipelines across processes.

The discrete-event fleet simulation decomposes cleanly along the edge
servers: every :class:`~repro.cluster.fleet.CameraJob` flows through its
edge's *private* resources (camera->edge LAN link, edge compute station,
edge->cloud WAN uplink) before touching the one resource shared by the
whole fleet — the cloud compute station.  Jobs placed on different edges
therefore interact **only** at the cloud tier, which is what makes an
exact parallel decomposition possible:

1. **Workers** (one task per edge server, sharded over a
   ``ProcessPoolExecutor``) run their edge's jobs through an *edge-only*
   :class:`~repro.cluster.topology.StageChain` — the same stage chain
   the single-process fleet runs, minus the cloud station — on a private
   virtual clock, producing each job's *cloud arrival time* plus the
   edge's tier statistics.  Virtual timestamps inside one edge's
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
   start, then the arrival offset, then job index).  Each level resolves
   the tie exactly as the shared scheduler's sequence numbers would; jobs
   still tied through the whole chain have identical timing histories, so
   within one edge FIFO order is job order and across edges the ingest
   events (scheduled in job order) decide — job index again.
3. **The merge** assembles the familiar :class:`FleetReport` from the
   per-edge results (sorted by edge index, i.e. deterministically
   *regardless of worker completion order*) and the cloud replay.

Three scale-out axes, all defaulting to the original behaviour and all
preserving the bit-exact parity contract:

* **Transport** (``SystemConfig.fleet_transport``): per-job payloads can
  cross the pool boundary as packed numpy arrays in shared-memory
  segments (:mod:`repro.parallel.transport`) instead of pickled
  dataclasses, and the workers' arrival/tie-chain results come back the
  same way — the hot loop stops serialising arrays entirely.
* **Work stealing** (``SystemConfig.fleet_stealing``): workers claim edge
  tasks from a shared longest-first queue (:mod:`repro.parallel.stealing`)
  instead of taking a static round-robin shard, so a skewed fleet no
  longer waits on its unluckiest worker.  Every run records a replayable
  :class:`~repro.parallel.stealing.StealLog` on
  ``FleetOrchestrator.last_steal_log``.
* **Hierarchical replay** (``SystemConfig.fleet_regions``): the cloud
  replay's arrival ordering is produced region by region (vectorised
  per-region lexsorts over the tie chain) and k-way merged, instead of
  one flat Python sort over all jobs — the region → global merge that
  keeps the parent's single pass from becoming the serial bottleneck.

``SystemConfig.fleet_workers == 1`` bypasses all of this and runs the
single-process path unchanged; the parity of the paths is pinned by
``tests/cluster/test_parallel_fleet.py`` and
``tests/parallel/test_fleet_scaleout.py`` to the same 1e-6 contract as
the serial regression suite.  When process pools are unavailable
(restricted sandboxes), the decomposed simulation runs inline in the
parent — same results, no parallelism.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, FrozenSet, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from ..cluster.topology import StageChain, StageUnit
from ..config import TRANSPORT_PICKLE, SystemConfig
from ..dataflow.scheduler import EventScheduler, ServiceStation, StationStats
from ..errors import ClusterError
from ..perf import Stopwatch
from .stealing import (ClaimBoard, StealLog, merge_claims, queue_order,
                       stealing_available)
from .transport import (ShardHandle, open_handle, resolve_transport,
                        transport)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only.
    from ..cluster.fleet import CameraJob, FleetOrchestrator, FleetReport


@dataclass(frozen=True)
class EdgeSimTask:
    """One edge server's share of the fleet, shipped to a worker process.

    Attributes:
        edge_index: The edge server being simulated.
        job_indices: Positions of the jobs in the orchestrator's job list
            (ascending, which is also their submission order).
        jobs: The jobs placed on this edge, aligned with ``job_indices``.
        start_offsets: Per-job arrival offsets, aligned with ``jobs``.
        config: Bandwidths and latencies of the fleet.
        edge_workers: Parallel compute slots of the edge station.
        kill_worker: Fault-injection poison (``WorkerKill`` specs of the
            orchestrator's fault plan): a *worker process* handed this
            task exits hard before simulating, as a real mid-run worker
            crash would.  The parent's inline re-execution ignores the
            flag, so the recovered report is bit-identical.
    """

    edge_index: int
    job_indices: Tuple[int, ...]
    jobs: Tuple["CameraJob", ...]
    start_offsets: Tuple[float, ...]
    config: SystemConfig
    edge_workers: int
    kill_worker: bool = False


@dataclass(frozen=True)
class EdgeShardStats:
    """The statistics half of one edge's stage-1..3 simulation.

    Under the array transports the per-job numbers (arrivals and the
    stage-start tie chain) travel through the result bundle, so the pool
    channel only carries this small fixed-size record per edge.

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


@dataclass(frozen=True)
class EdgeSimResult(EdgeShardStats):
    """One edge's statistics plus its per-job numbers (pickle transport).

    Attributes:
        job_indices: Original job positions, aligned with ``cloud_arrivals``.
        cloud_arrivals: Virtual time each job finished its WAN transfer and
            became ready for cloud compute.
        stage_starts: Per job, the virtual times its WAN transfer, edge
            compute and LAN transfer *started* service — the tie-break
            chain that reproduces the shared scheduler's insertion order
            for simultaneous cloud arrivals.
    """

    job_indices: Tuple[int, ...] = ()
    cloud_arrivals: Tuple[float, ...] = ()
    stage_starts: Tuple[Tuple[float, float, float], ...] = ()


def empty_edge_result(edge_index: int) -> EdgeSimResult:
    """The result of an edge server that received no jobs.

    All-zero statistics: an idle edge contributes empty tiers (utilisation
    0, no queueing) to the merged report rather than being skipped, so
    fleets with more edges than cameras keep one tier entry per server.
    """
    return EdgeSimResult(edge_index=edge_index, lan_stats=StationStats(),
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

    def __init__(self, work: Any) -> None:
        super().__init__(work)
        self.arrival = float("nan")
        self.starts: Dict[str, float] = {}


def _simulate_edge_rows(edge_index: int, config: SystemConfig,
                        edge_workers: int, offsets: Sequence[float],
                        works: Sequence[Any]
                        ) -> Tuple[EdgeShardStats, List[_ShardRow]]:
    """Simulate one edge's LAN -> edge compute -> WAN pipeline in isolation.

    The one per-edge simulation body, whatever the transport: ``works``
    are the jobs' cost records (``CameraJob`` dataclasses or packed-array
    :class:`_RowCosts`), run as units of an edge-only
    :class:`~repro.cluster.topology.StageChain`; the returned rows align
    with them.  A row's WAN delivery is its cloud arrival; every stage's
    *service start* is recorded too — the instants the joint simulation
    would insert the corresponding completion events, which the cloud
    replay needs to break arrival-time ties exactly.
    """
    scheduler = EventScheduler()

    def _arrived(row: _ShardRow) -> None:
        row.arrival = scheduler.now

    def _stage_started(row: _ShardRow) -> None:
        row.starts[row.stage] = scheduler.now

    chain = StageChain(scheduler, config, (edge_index,), edge_workers,
                       on_finish=_arrived, on_stage_start=_stage_started)
    rows = [_ShardRow(work) for work in works]
    for row, offset in zip(rows, offsets):
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
    return stats, rows


def simulate_edge(task: EdgeSimTask) -> EdgeSimResult:
    """Worker-side function of the pickle transport.

    Must stay importable at module level (and its argument/return types
    picklable) for the process pool.
    """
    if task.kill_worker and multiprocessing.parent_process() is not None:
        # Injected worker crash: die like a SIGKILL'd process, not an
        # exception the pool could pickle back.  Only ever taken inside a
        # pool worker; the parent's inline (re-)execution runs the
        # simulation normally.
        os._exit(17)
    if not task.jobs:
        return empty_edge_result(task.edge_index)
    stats, rows = _simulate_edge_rows(
        task.edge_index, task.config, task.edge_workers, task.start_offsets,
        task.jobs)
    return EdgeSimResult(
        **vars(stats), job_indices=task.job_indices,
        cloud_arrivals=tuple(row.arrival for row in rows),
        stage_starts=tuple((row.starts["wan"], row.starts["edge"],
                            row.starts["lan"]) for row in rows))


def simulate_edge_shard(tasks: Sequence[EdgeSimTask]) -> List[EdgeSimResult]:
    """Worker entry point: simulate a batch of edges sequentially."""
    return [simulate_edge(task) for task in tasks]


# --------------------------------------------------------------------- #
# Array-transport shard execution (shared memory / stealing paths)
# --------------------------------------------------------------------- #

#: Names of the packed per-job columns inside a jobs bundle, row-grouped by
#: task (``task_ptr`` slices select one edge's rows).
_JOB_COLUMNS = ("job_index", "offset", "camera_edge_bytes", "edge_seconds",
                "edge_cloud_bytes")

#: Names of the per-job result columns (indexed by *original* job index).
_RESULT_COLUMNS = ("arrival", "wan_start", "edge_start", "lan_start")


@dataclass(frozen=True)
class ShardWorkerSpec:
    """Everything one pool worker needs to simulate its share of the fleet.

    Attributes:
        worker_slot: This worker's position in the pool (steal-log id).
        jobs_handle: The packed per-job columns (see ``_JOB_COLUMNS``).
        results_handle: Parent-allocated result bundle the worker writes in
            place (shared transports), or ``None`` — results then return
            through the pool channel.
        task_edges: Edge index of every task.
        task_ptr: CSR row pointers: task ``t`` owns job rows
            ``task_ptr[t]:task_ptr[t + 1]``.
        assigned: Task ids this worker runs (static shards and replays).
        claim_path: Claim-board cursor path — when set, the worker ignores
            ``assigned`` and claims queue positions dynamically.
        queue: Task id at each queue position (claim mode only).
        config: Bandwidths and latencies of the fleet.
        edge_workers: Parallel compute slots per edge station.
        kill_edges: Fault-injection poison: a pool worker beginning one of
            these edges exits hard (the parent's inline re-execution
            simulates normally).
    """

    worker_slot: int
    jobs_handle: ShardHandle
    results_handle: Optional[ShardHandle]
    task_edges: Tuple[int, ...]
    task_ptr: Tuple[int, ...]
    assigned: Tuple[int, ...]
    claim_path: Optional[str]
    queue: Tuple[int, ...]
    config: SystemConfig
    edge_workers: int
    kill_edges: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class ShardOutcome:
    """What one shard worker sends back through the pool channel.

    Attributes:
        worker_slot: The reporting worker.
        stats: Per-task statistics, in execution order.
        claims: ``(claim_seq, edge_index)`` pairs (claim mode only).
        results: Per-job result columns for the worker's rows, keyed as
            ``{"job_index": ..., "arrival": ..., ...}`` — only when no
            shared result bundle was available (pickle transport).
    """

    worker_slot: int
    stats: Tuple[EdgeShardStats, ...]
    claims: Tuple[Tuple[int, int], ...]
    results: Optional[Dict[str, np.ndarray]]


def _simulate_columns(edge_index: int, config: SystemConfig,
                      edge_workers: int, jobs: Dict[str, np.ndarray],
                      low: int, high: int
                      ) -> Tuple[EdgeShardStats, Dict[str, List[float]]]:
    """Run rows ``low:high`` of the packed job columns as one edge.

    Scalars are pulled out of the arrays as native Python values before
    entering the event chain, so every downstream float operation is the
    same operation (on the same bits) the dataclass path performs — the
    transport changes how numbers travel, never what they are.
    """
    works = [_RowCosts(int(lan_bytes), float(seconds), int(wan_bytes))
             for lan_bytes, seconds, wan_bytes in zip(
                 jobs["camera_edge_bytes"][low:high],
                 jobs["edge_seconds"][low:high],
                 jobs["edge_cloud_bytes"][low:high])]
    stats, rows = _simulate_edge_rows(
        edge_index, config, edge_workers,
        [float(value) for value in jobs["offset"][low:high]], works)
    columns: Dict[str, List[float]] = {
        "job_index": [float(value) for value in jobs["job_index"][low:high]],
        "arrival": [row.arrival for row in rows],
        "wan_start": [row.starts["wan"] for row in rows],
        "edge_start": [row.starts["edge"] for row in rows],
        "lan_start": [row.starts["lan"] for row in rows],
    }
    return stats, columns


def run_fleet_shard(spec: ShardWorkerSpec) -> ShardOutcome:
    """Pool-worker entry point for the array-transport paths.

    Must stay importable at module level for the process pool.  Runs the
    worker's tasks — the static ``assigned`` list, or dynamic claims from
    the shared queue — writing per-job results into the shared bundle when
    one exists and returning them through the channel otherwise.
    """
    stats: List[EdgeShardStats] = []
    claims: List[Tuple[int, int]] = []
    local: Dict[str, List[float]] = {name: [] for name in
                                     ("job_index",) + _RESULT_COLUMNS}
    board = (ClaimBoard(spec.claim_path) if spec.claim_path is not None
             else None)

    def _tasks():
        if board is not None:
            while True:
                seq = board.claim_next()
                if seq is None:
                    return
                yield seq, spec.queue[seq]
        else:
            yield from enumerate(spec.assigned)

    with open_handle(spec.jobs_handle) as jobs:
        results_attachment = (open_handle(spec.results_handle)
                              if spec.results_handle is not None else None)
        try:
            shared = (results_attachment.arrays
                      if results_attachment is not None else None)
            for seq, task in _tasks():
                edge_index = spec.task_edges[task]
                if (edge_index in spec.kill_edges
                        and multiprocessing.parent_process() is not None):
                    # Injected worker crash (see simulate_edge): die hard,
                    # mid-claim — exactly when a real crash would strand
                    # claimed-but-unfinished work for the parent to redo.
                    os._exit(17)
                claims.append((seq, edge_index))
                low, high = spec.task_ptr[task], spec.task_ptr[task + 1]
                shard_stats, columns = _simulate_columns(
                    edge_index, spec.config, spec.edge_workers, jobs,
                    low, high)
                stats.append(shard_stats)
                rows = [int(value) for value in columns["job_index"]]
                if shared is not None:
                    # Disjoint slots per job, so concurrent writers never
                    # race: scatter straight into the parent's memory.
                    for name in _RESULT_COLUMNS:
                        shared[name][rows] = columns[name]
                else:
                    for name in local:
                        local[name].extend(columns[name])
        finally:
            if results_attachment is not None:
                results_attachment.close()
    returned = (None if spec.results_handle is not None
                else {name: np.asarray(values, dtype=np.float64)
                      for name, values in local.items()})
    return ShardOutcome(worker_slot=spec.worker_slot, stats=tuple(stats),
                        claims=tuple(claims), results=returned)


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
                     transport_mode: str, stealing: bool,
                     replay_log: Optional[StealLog],
                     kill_edges: FrozenSet[int]
                     ) -> Tuple[Dict[int, EdgeShardStats],
                                Dict[str, np.ndarray], Optional[StealLog]]:
    """Execute the edge phase over the array transport.

    Returns ``(stats by edge, result columns by name, steal log)``.  The
    result columns are indexed by original job position and are owned by
    the caller (copied out of any shared segment before cleanup).
    """
    num_tasks = len(edge_job_lists)
    num_jobs = len(jobs)
    results = {name: np.zeros(num_jobs, dtype=np.float64)
               for name in _RESULT_COLUMNS}
    stats_by_edge: Dict[int, EdgeShardStats] = {}
    if num_tasks == 0:
        return stats_by_edge, results, None

    columns, task_ptr = _pack_job_columns(jobs, offsets, edge_job_lists)
    task_edges = tuple(edge for edge, _ in edge_job_lists)
    # Wall-clock cost of simulating a task scales with its event count,
    # i.e. its job count — the deterministic estimate the queue is built
    # from.
    queue = tuple(queue_order([len(job_indices)
                               for _, job_indices in edge_job_lists]))
    task_of_edge = {edge: task for task, edge in enumerate(task_edges)}

    board: Optional[ClaimBoard] = None
    steal_log: Optional[StealLog] = None
    with transport(transport_mode) as channel:
        try:
            jobs_handle = channel.publish(columns)
            results_handle = (channel.allocate(
                {name: ("float64", (num_jobs,)) for name in _RESULT_COLUMNS})
                if channel.is_shared else None)

            def _spec(slot: int, assigned: Tuple[int, ...],
                      claim_path: Optional[str]) -> ShardWorkerSpec:
                return ShardWorkerSpec(
                    worker_slot=slot, jobs_handle=jobs_handle,
                    results_handle=results_handle, task_edges=task_edges,
                    task_ptr=task_ptr, assigned=assigned,
                    claim_path=claim_path, queue=queue, config=config,
                    edge_workers=edge_workers, kill_edges=kill_edges)

            if replay_log is not None:
                num_workers = max(replay_log.num_workers, 1)
                specs = [
                    _spec(slot, tuple(task_of_edge[edge] for edge in
                                      replay_log.tasks_of(slot)), None)
                    for slot in range(num_workers)
                ]
            elif stealing:
                num_workers = min(fleet_workers, num_tasks)
                board = ClaimBoard.create(num_tasks)
                specs = [_spec(slot, (), board.path)
                         for slot in range(num_workers)]
            else:
                num_workers = min(fleet_workers, num_tasks)
                # Static shards over the queue order: position k goes to
                # worker k % num_workers — the baseline the steal log's
                # ``steals`` counter is defined against.
                specs = [_spec(slot, tuple(queue[slot::num_workers]), None)
                         for slot in range(num_workers)]

            outcomes: List[ShardOutcome] = []
            pool_broke = False
            if len(specs) <= 1:
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
                                pool_broke = True
                except (OSError, PermissionError, RuntimeError):
                    # Restricted environments (forbidden fork/spawn) fall
                    # back to the same decomposed simulation run inline:
                    # identical results, just no process-level parallelism.
                    pool_broke = True
                    outcomes = []

            for outcome in outcomes:
                for shard_stats in outcome.stats:
                    stats_by_edge[shard_stats.edge_index] = shard_stats
                if outcome.results is not None:
                    rows = outcome.results["job_index"].astype(np.int64)
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
            missing = sorted(edge for edge in task_edges
                             if edge not in stats_by_edge)
            if missing:
                jobs_view = channel.attach(jobs_handle)
                for edge in missing:
                    task = task_of_edge[edge]
                    low, high = task_ptr[task], task_ptr[task + 1]
                    shard_stats, recomputed = _simulate_columns(
                        edge, config, edge_workers, jobs_view, low, high)
                    stats_by_edge[edge] = shard_stats
                    rows = [int(value) for value in recomputed["job_index"]]
                    for name in _RESULT_COLUMNS:
                        results[name][rows] = recomputed[name]

            if replay_log is not None:
                steal_log = replay_log
            elif stealing and not pool_broke:
                claimed = [(outcome.worker_slot, outcome.claims)
                           for outcome in outcomes]
                if sum(len(claims) for _, claims in claimed) == num_tasks:
                    steal_log = merge_claims(claimed, len(specs))
                # else: a worker vanished with its claims; the recovered
                # run has no complete provenance to record.
        finally:
            if board is not None:
                board.remove()
    return stats_by_edge, results, steal_log


# --------------------------------------------------------------------- #
# Cloud replay
# --------------------------------------------------------------------- #

def hierarchical_replay_order(job_edges: Sequence[int],
                              wan_starts: np.ndarray,
                              edge_starts: np.ndarray,
                              lan_starts: np.ndarray,
                              offsets: np.ndarray,
                              num_edge_servers: int,
                              regions: int) -> List[int]:
    """The cloud replay's insertion order via a region -> global merge.

    Level one: jobs are partitioned by the *region* of their edge
    (``edge_index * regions // num_edge_servers`` — contiguous edge
    blocks), and each region's jobs are sorted by the tie chain with one
    vectorised ``np.lexsort`` (stable, so equal chains fall back to
    ascending job index exactly like the flat path's trailing index key).
    Level two: the per-region runs are k-way merged on the same key.  The
    merged order is **identical** to the flat
    ``sorted(range(n), key=tie_chain)`` — the hierarchy changes the
    *cost* of producing the order (k short sorts plus an ``O(n log k)``
    merge instead of one ``O(n log n)`` Python tuple sort), never the
    order itself.
    """
    edges = np.asarray(job_edges, dtype=np.int64)
    count = int(edges.size)
    if count == 0:
        return []
    regions = max(1, min(int(regions), int(num_edge_servers)))
    region_ids = (edges * regions) // int(num_edge_servers)
    runs: List[np.ndarray] = []
    for region in range(regions):
        members = np.flatnonzero(region_ids == region)
        if members.size == 0:
            continue
        permutation = np.lexsort((members, offsets[members],
                                  lan_starts[members], edge_starts[members],
                                  wan_starts[members]))
        runs.append(members[permutation])
    if len(runs) == 1:
        return [int(index) for index in runs[0]]

    def chain(index: np.integer) -> Tuple[float, float, float, float, int]:
        return (float(wan_starts[index]), float(edge_starts[index]),
                float(lan_starts[index]), float(offsets[index]), int(index))

    return [int(index) for index in
            heapq.merge(*[list(run) for run in runs], key=chain)]


def replay_cloud(arrivals: Sequence[float], service_seconds: Sequence[float],
                 cloud_workers: int,
                 tie_keys: Sequence[Tuple[float, ...]] = (),
                 order: Optional[Sequence[int]] = None,
                 insert_times: Optional[Sequence[float]] = None
                 ) -> Tuple[List[float], StationStats, int]:
    """Replay the shared cloud station over the collected arrivals.

    Args:
        arrivals: Per-job cloud arrival (WAN completion) time.
        service_seconds: Per-job cloud compute time.
        cloud_workers: Cloud station capacity.
        tie_keys: Optional per-job tuples breaking equal-``arrival`` ties
            — the stage service-*start* times ``(wan, edge, lan, offset)``
            recorded by the edge simulations.  The joint scheduler fires
            simultaneous events in insertion order, and a completion event
            is inserted when its service starts, so sorting tied arrivals
            by start-time chain (job index last) reproduces that order.
        order: Pre-computed insertion order (job indices), e.g. from
            :func:`hierarchical_replay_order`; skips the flat sort.
        insert_times: Per-job starter instants used with ``order`` (the
            WAN service starts); defaults to ``tie_keys[i][0]`` /
            ``arrivals[i]`` as before.

    Returns:
        ``(end_seconds per job, cloud station stats, finish events)`` where
        finish events excludes the arrival re-fires (those stand in for the
        workers' WAN-completion events and must not be double counted).
    """
    scheduler = EventScheduler()
    cloud = ServiceStation(scheduler, "cloud", capacity=cloud_workers)
    ends: List[float] = [float("nan")] * len(arrivals)

    def _submit(job_index: int) -> None:
        def _finish(_: object) -> None:
            ends[job_index] = scheduler.now
        cloud.submit(service_seconds[job_index], on_complete=_finish)

    def _insert_arrival(job_index: int) -> None:
        scheduler.schedule_at(arrivals[job_index],
                              lambda job_index=job_index: _submit(job_index))

    def sort_key(index: int):
        # Order of insertion = (insertion instant, then the deeper
        # service-start chain, then job index) — the same order the joint
        # scheduler's sequence numbers impose.
        if tie_keys:
            return (*tie_keys[index], index)
        return (arrivals[index], index)

    if order is None:
        order = sorted(range(len(arrivals)), key=sort_key)

    def _insert_at(job_index: int) -> float:
        if insert_times is not None:
            return insert_times[job_index]
        return tie_keys[job_index][0] if tie_keys else arrivals[job_index]

    # Each arrival event must enter the heap at the instant the joint
    # simulation inserted the corresponding WAN-completion event — its WAN
    # service start — or its sequence number (and hence its order against
    # cloud-completion events firing at the same virtual time, which are
    # inserted mid-run at cloud service start) comes out wrong.  A starter
    # event at the WAN start time performs the insertion; the starters
    # themselves are pre-inserted in tie-chain order so equal start times
    # keep the joint order too.
    for job_index in order:
        scheduler.schedule_at(
            _insert_at(job_index),
            lambda job_index=job_index: _insert_arrival(job_index))
    scheduler.run()
    # The starter and arrival events are replay bookkeeping standing in for
    # the workers' WAN-completion events; only cloud completions count.
    finish_events = scheduler.events_processed - 2 * len(arrivals)
    return ends, cloud.stats, finish_events


# --------------------------------------------------------------------- #
# Orchestrated parallel run
# --------------------------------------------------------------------- #

def run_parallel(orchestrator: "FleetOrchestrator",
                 fleet_workers: int,
                 replay_steal: Optional[StealLog] = None) -> "FleetReport":
    """Execute a fleet simulation across ``fleet_workers`` processes.

    Produces a report equal to ``orchestrator.run()``'s (within float
    reassociation; in practice bit-identical) with per-edge pipelines
    simulated concurrently.  The merge is deterministic regardless of
    worker completion order: results are keyed and combined by edge index.

    The scale-out knobs all come from ``orchestrator.config``:
    ``fleet_transport`` selects the payload transport, ``fleet_stealing``
    the dynamic claim protocol (the recorded log lands on
    ``orchestrator.last_steal_log``), ``fleet_regions`` the hierarchical
    replay.  ``replay_steal`` (or ``orchestrator.replay_steal_log``)
    re-runs a recorded claim pattern as a static assignment.
    """
    from ..cluster.fleet import JobOutcome, fold_report
    if fleet_workers < 1:
        raise ClusterError(f"fleet_workers must be >= 1, got {fleet_workers}")
    watch = Stopwatch().start()
    config = orchestrator.config
    jobs = orchestrator.jobs
    assignments = orchestrator.assign()
    offsets = orchestrator._arrival_offsets()
    num_jobs = len(jobs)

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

    transport_mode = resolve_transport(config.fleet_transport)
    stealing = bool(config.fleet_stealing) and stealing_available()
    replay_log = (replay_steal if replay_steal is not None
                  else orchestrator.replay_steal_log)
    steal_log: Optional[StealLog] = None

    arrival_columns = {name: np.zeros(num_jobs, dtype=np.float64)
                       for name in _RESULT_COLUMNS}
    use_scaleout = (transport_mode != TRANSPORT_PICKLE or stealing
                    or replay_log is not None)
    results: Dict[int, object]
    if use_scaleout:
        stats_by_edge, arrival_columns, steal_log = _run_shard_fleet(
            jobs, edge_job_lists, offsets, config,
            orchestrator.edge_workers, fleet_workers, transport_mode,
            stealing, replay_log, kill_edges)
        results = dict(stats_by_edge)
    else:
        tasks = [
            EdgeSimTask(
                edge_index=edge_index,
                job_indices=tuple(job_indices),
                jobs=tuple(jobs[index] for index in job_indices),
                start_offsets=tuple(offsets[index] for index in job_indices),
                config=config,
                edge_workers=orchestrator.edge_workers,
                kill_worker=edge_index in kill_edges,
            )
            for edge_index, job_indices in edge_job_lists
        ]
        results = dict(_run_edge_tasks(tasks, fleet_workers))
        for result in results.values():
            for position, job_index in enumerate(result.job_indices):
                arrival_columns["arrival"][job_index] = \
                    result.cloud_arrivals[position]
                wan, edge, lan = result.stage_starts[position]
                arrival_columns["wan_start"][job_index] = wan
                arrival_columns["edge_start"][job_index] = edge
                arrival_columns["lan_start"][job_index] = lan
    for edge_index in range(orchestrator.num_edge_servers):
        if edge_index not in results:
            results[edge_index] = empty_edge_result(edge_index)
    orchestrator.last_steal_log = steal_log

    arrivals = [float(value) for value in arrival_columns["arrival"]]
    offsets_array = np.asarray(offsets, dtype=np.float64)
    regions = (fleet_workers if config.fleet_regions == 0
               else config.fleet_regions)
    regions = max(1, min(int(regions), orchestrator.num_edge_servers))
    service_seconds = [job.cloud_seconds for job in jobs]
    if regions > 1 and num_jobs:
        job_edges = [assignments[job.camera] for job in jobs]
        order = hierarchical_replay_order(
            job_edges, arrival_columns["wan_start"],
            arrival_columns["edge_start"], arrival_columns["lan_start"],
            offsets_array, orchestrator.num_edge_servers, regions)
        ends, cloud_stats, cloud_events = replay_cloud(
            arrivals, service_seconds, orchestrator.cloud_workers,
            order=order,
            insert_times=[float(value)
                          for value in arrival_columns["wan_start"]])
    else:
        tie_keys: List[Tuple[float, ...]] = [
            (float(arrival_columns["wan_start"][index]),
             float(arrival_columns["edge_start"][index]),
             float(arrival_columns["lan_start"][index]),
             offsets[index])
            for index in range(num_jobs)
        ]
        ends, cloud_stats, cloud_events = replay_cloud(
            arrivals, service_seconds, orchestrator.cloud_workers,
            tie_keys=tie_keys)

    outcomes = [
        JobOutcome(job=job, edge_index=assignments[job.camera],
                   start_seconds=offset, end_seconds=end)
        for job, offset, end in zip(jobs, offsets, ends)
    ]
    ordered = [results[index] for index in sorted(results)]
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


def _run_edge_tasks(tasks: List[EdgeSimTask],
                    fleet_workers: int) -> Dict[int, EdgeSimResult]:
    """Run the edge tasks over a process pool (inline when unavailable).

    The original (pickle, static-shard) execution path, kept verbatim as
    the default: tasks are sharded round-robin over the workers; results
    are collected as they complete and keyed by edge index, so scheduling
    and completion order cannot affect the merged report.
    """
    shards: List[List[EdgeSimTask]] = [
        tasks[worker::fleet_workers]
        for worker in range(min(fleet_workers, len(tasks)))
    ]
    shards = [shard for shard in shards if shard]
    results: Dict[int, EdgeSimResult] = {}
    if len(shards) <= 1:
        for result in simulate_edge_shard(tasks):
            results[result.edge_index] = result
        return results
    try:
        lost_shards: List[List[EdgeSimTask]] = []
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            futures = {pool.submit(simulate_edge_shard, shard): shard
                       for shard in shards}
            for future in as_completed(futures):
                # A worker dying mid-run (injected WorkerKill, OOM kill,
                # segfault) breaks the whole pool: its own shard and any
                # shard still pending surface BrokenProcessPool here.
                # Collect exactly those and keep every shard that already
                # returned — only the lost work is redone.
                try:
                    shard_results = future.result()
                except BrokenProcessPool:
                    lost_shards.append(futures[future])
                    continue
                for result in shard_results:
                    results[result.edge_index] = result
        # Re-execute the lost shards inline, in deterministic order (the
        # kill poison only fires inside pool workers, so the re-run
        # simulates normally and the merged report is bit-identical).
        for shard in sorted(lost_shards,
                            key=lambda shard: shard[0].edge_index):
            for result in simulate_edge_shard(shard):
                results[result.edge_index] = result
        return results
    except (OSError, PermissionError, RuntimeError):
        # Restricted environments (no /dev/shm, forbidden fork/spawn) fall
        # back to the same decomposed simulation run inline: identical
        # results, just no process-level parallelism.
        results.clear()
        for result in simulate_edge_shard(tasks):
            results[result.edge_index] = result
        return results
