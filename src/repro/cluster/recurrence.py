"""The fault-free batch fleet as a recurrence over start and end times.

A fault-free :class:`~repro.cluster.fleet.FleetOrchestrator` run is a
feed-forward tandem of FIFO stations whose placement is fixed before the
first event: per edge a LAN link, an edge station and a WAN uplink, then
the one cloud station every edge feeds.  On such a chain every service
start is ``max(arrival, the instant a worker frees up)`` and every end is
``start + service`` — the float operations the event loop performs, on
the same values, without the heap or the callbacks.  :func:`replay_fleet`
computes those instants pass by pass (LAN, edge, WAN per edge, then one
merged cloud pass), together with the statistics the stations would
have recorded.

Ties are where a recurrence can part from the loop.  The scheduler fires
simultaneous events in insertion order, and an event is inserted while
another one fires, so its place is decided by its time, then by the
event that inserted it, recursively.  Every event here keeps its time and
the event that inserted it (its *parent*), and :func:`_fires_before`
walks those chains only when two times are equal.  That walk decides
whether an admission finds a worker free, the order in which
simultaneous WAN deliveries from different edges enter the cloud, and
whether a completion at the instant of an admission has already left
the station (which is what a queue-depth sample sees).

:class:`~repro.cluster.topology.StageChain` on an
:class:`~repro.dataflow.scheduler.EventScheduler` stays the definition:
runs with scheduler faults go through it, and the property tests hold
this module to it at tolerance 0.0.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from heapq import heappush, heapreplace
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..config import SystemConfig
from ..dataflow.scheduler import StationStats
from ..net.link import NetworkLink

#: Event ``5 * j + stage`` is job ``j``'s ingest (stage 0) or its
#: completion at the LAN link, edge station, WAN uplink or cloud station
#: (stages 1-4).  A job's admission to stage ``s`` is its event at
#: ``s - 1``.  These are the five events per job the chain fires.
EVENTS_PER_JOB = 5
_LAN, _EDGE, _WAN, _CLOUD = 1, 2, 3, 4


class FleetReplay(NamedTuple):
    """What :func:`replay_fleet` computed (the inputs of ``fold_report``)."""

    #: Row ``s`` holds every job's event ``s`` instant (ingest, then the
    #: LAN, edge, WAN and cloud completions), one column per job.
    instants: np.ndarray
    edge_stats: List[StationStats]
    wan_stats: List[StationStats]
    cloud_stats: StationStats
    camera_edge_bytes: int
    edge_cloud_bytes: int
    wan_transfer_seconds: float


def _fires_before(x: int, y: int, when: List[float], parent: List[int],
                  ties: Dict[Tuple[int, int], bool]) -> bool:
    """Whether event ``x`` fires before event ``y`` (``x != y``).

    Equal times fall back to the events that inserted them.  When one
    event inserted both, the downstream stage's direct start (made inside
    ``on_complete``) came before the dispatch of the station's next
    waiting job.  Ingests are inserted before the run (parent ``-1``), in
    job order, so they precede every event inserted while it runs.

    ``ties`` memoises every pair a walk passes through (all share its
    answer), so a later walk stops where an earlier one went: identical
    jobs tie at every delivery, and each walk would otherwise run back to
    the ingests.
    """
    walked = []
    while True:
        tx, ty = when[x], when[y]
        if tx != ty:
            before = tx < ty
            break
        before = ties.get((x, y))
        if before is not None:
            break
        px, py = parent[x], parent[y]
        if px == py:
            # A direct start's parent is the job's own admission event.
            before = x < y if px < 0 else px == x - 1
            break
        if px < 0 or py < 0:
            before = px < 0
            break
        walked.append((x, y))
        x, y = px, py
    for x, y in walked:
        ties[x, y] = before
        ties[y, x] = not before
    return before


def _serve(admitted: Sequence[int], stage: int, service: Sequence[float],
           slots: int, when: List[float], parent: List[int],
           ties: Dict[Tuple[int, int], bool]
           ) -> Tuple[Sequence[int], StationStats]:
    """One FIFO station with ``slots`` workers.

    ``admitted`` holds job indices in the order their admission events
    fire.  Fills in ``when`` / ``parent`` of every job's completion event
    and returns the jobs in the order those completions fire (the next
    stage's admission order) with the station's statistics: busy seconds
    summed in completion order, and the peak of admitted-but-not-started
    jobs sampled at each admission.
    """
    if slots == 1:
        return _serve_one(admitted, stage, service, when, parent, ties)
    peak = done = 0
    in_service: List[Tuple[float, int, int]] = []
    fired: List[int] = []  # completion events, in firing order
    for rank, job in enumerate(admitted):
        event = EVENTS_PER_JOB * job + stage
        admission = event - 1
        arrival = when[admission]
        if rank < slots:
            parent[event] = admission
            end = arrival + service[job]
            heappush(in_service, (end, rank, event))
        else:
            # Completions fire in (end, start order); the earliest one
            # frees the worker this job takes.
            free, _, freed = in_service[0]
            if arrival > free or (arrival == free and _fires_before(
                    freed, admission, when, parent, ties)):
                start = arrival
                parent[event] = admission
            else:
                start = free
                parent[event] = freed
                # Queued: the completions that fired before this
                # admission left; the ones in service did not.
                while done < len(fired) and (
                        when[fired[done]] < arrival
                        or (when[fired[done]] == arrival
                            and _fires_before(fired[done], admission,
                                              when, parent, ties))):
                    done += 1
                if rank + 1 - done - slots > peak:
                    peak = rank + 1 - done - slots
            fired.append(freed)
            end = start + service[job]
            heapreplace(in_service, (end, rank, event))
        when[event] = end
    fired.extend(event for _, _, event in sorted(in_service))
    completed = [event // EVENTS_PER_JOB for event in fired]
    busy = 0.0
    for job in completed:
        busy += service[job]
    return completed, StationStats(busy_seconds=busy,
                                   completed=len(admitted),
                                   arrivals=len(admitted),
                                   max_queue_depth=peak)


def _serve_one(admitted: Sequence[int], stage: int, service: Sequence[float],
               when: List[float], parent: List[int],
               ties: Dict[Tuple[int, int], bool]
               ) -> Tuple[Sequence[int], StationStats]:
    """:func:`_serve` on one worker, which needs no heap.

    Each start waits for the previous job's end, so completions fire in
    admission order: the worker a job takes is always freed by the job
    admitted just before it, the completions that can have fired before
    an admission are those of the jobs admitted before that one, and busy
    seconds accrue in admission order.
    """
    peak = done = 0
    busy = 0.0
    free, freed = -math.inf, -1
    for rank, job in enumerate(admitted):
        event = EVENTS_PER_JOB * job + stage
        admission = event - 1
        arrival = when[admission]
        seconds = service[job]
        busy += seconds
        if arrival > free or (arrival == free and _fires_before(
                freed, admission, when, parent, ties)):
            parent[event] = admission
            free = when[event] = arrival + seconds
        else:
            parent[event] = freed
            free = when[event] = free + seconds
            while done < rank - 1:
                left = EVENTS_PER_JOB * admitted[done] + stage
                if when[left] > arrival or (when[left] == arrival and not (
                        _fires_before(left, admission, when, parent, ties))):
                    break
                done += 1
            if rank - done > peak:
                peak = rank - done
        freed = event
    return admitted, StationStats(busy_seconds=busy, completed=len(admitted),
                                  arrivals=len(admitted), max_queue_depth=peak)


def _cloud_arrival_order(when: List[float], parent: List[int],
                         ties: Dict[Tuple[int, int], bool]) -> List[int]:
    """Job indices in the order their WAN deliveries fire: by time, then
    each run of equal times by :func:`_fires_before`."""
    times = np.asarray(when[_WAN::EVENTS_PER_JOB], dtype=np.float64)
    order = np.argsort(times, kind="stable")
    ordered = order.tolist()
    ranked = times[order]
    tied = np.flatnonzero(ranked[1:] == ranked[:-1]).tolist()

    def compare(a: int, b: int) -> int:
        return -1 if _fires_before(EVENTS_PER_JOB * a + _WAN,
                                   EVENTS_PER_JOB * b + _WAN,
                                   when, parent, ties) else 1

    index = 0
    while index < len(tied):
        first = tied[index]
        while index + 1 < len(tied) and tied[index + 1] == tied[index] + 1:
            index += 1
        last = tied[index] + 2
        ordered[first:last] = sorted(ordered[first:last],
                                     key=cmp_to_key(compare))
        index += 1
    return ordered


def _transfer_seconds(link: NetworkLink, sizes: List[int]) -> List[float]:
    """``link.transfer_seconds`` of every size, as one float64 column: the
    same float operations elementwise, so the same bits (``size * 8`` is
    exact in float64)."""
    column = np.array(sizes, dtype=np.float64)
    return ((column * 8) / (link.bandwidth_mbps * 1e6)
            + link.latency_ms / 1e3).tolist()


def replay_fleet(jobs: Sequence, placements: Sequence[int],
                 offsets: Sequence[float], config: SystemConfig,
                 num_edges: int, edge_workers: int,
                 cloud_workers: int) -> FleetReplay:
    """The fault-free fleet's timelines and tier statistics.

    Args:
        jobs: The camera jobs (``CameraJob`` stores its seconds as
            ``float`` and its bytes as ``int``).
        placements: Edge index of each job.
        offsets: Ingest instant of each job.
        config: Bandwidths and latencies of the links.
        num_edges: Edge servers (one LAN link, station and uplink each).
        edge_workers: Slots per edge station.
        cloud_workers: Slots of the cloud station.
    """
    count = len(jobs)
    when = [0.0] * (EVENTS_PER_JOB * count)
    parent = [-1] * (EVENTS_PER_JOB * count)
    when[0::EVENTS_PER_JOB] = offsets
    ties: Dict[Tuple[int, int], bool] = {}
    lan = NetworkLink("camera-edge", config.camera_edge_bandwidth_mbps,
                      config.camera_edge_latency_ms)
    wan = NetworkLink("edge-cloud", config.edge_cloud_bandwidth_mbps,
                      config.edge_cloud_latency_ms)
    lan_bytes = [job.camera_edge_bytes for job in jobs]
    wan_bytes = [job.edge_cloud_bytes for job in jobs]
    lan_seconds = _transfer_seconds(lan, lan_bytes)
    edge_seconds = [job.edge_seconds for job in jobs]
    wan_seconds = _transfer_seconds(wan, wan_bytes)

    # Ingests fire in (offset, job index) order; each edge admits its own
    # jobs in that order.
    edges = np.asarray(placements, dtype=np.int64)
    ingest_order = np.lexsort((np.asarray(offsets, dtype=np.float64), edges))
    per_edge = np.split(ingest_order, np.cumsum(
        np.bincount(edges, minlength=num_edges))[:-1])
    edge_stats, wan_stats, wan_totals = [], [], []
    for admitted in per_edge:
        through_lan, _ = _serve(admitted.tolist(), _LAN, lan_seconds, 1,
                                when, parent, ties)
        through_edge, stats = _serve(through_lan, _EDGE, edge_seconds,
                                     edge_workers, when, parent, ties)
        edge_stats.append(stats)
        delivered, stats = _serve(through_edge, _WAN, wan_seconds, 1,
                                  when, parent, ties)
        wan_stats.append(stats)
        # NetworkLink.total_seconds: summed in delivery order.
        wan_totals.append(sum(map(wan_seconds.__getitem__, delivered)))

    _, cloud_stats = _serve(_cloud_arrival_order(when, parent, ties), _CLOUD,
                            [job.cloud_seconds for job in jobs],
                            cloud_workers, when, parent, ties)
    return FleetReplay(
        instants=np.fromiter(when, dtype=np.float64, count=len(when)).reshape(
            count, EVENTS_PER_JOB).T.copy(),
        edge_stats=edge_stats, wan_stats=wan_stats, cloud_stats=cloud_stats,
        camera_edge_bytes=sum(lan_bytes), edge_cloud_bytes=sum(wan_bytes),
        wan_transfer_seconds=sum(wan_totals))
