"""The fault-free stage chain as a recurrence over start and end times.

Two drivers compute their runs here instead of on the event loop:

* a :class:`~repro.cluster.fleet.FleetOrchestrator` run, whose
  camera jobs ingest over one LAN link per edge at their arrival offsets;
* a :class:`~repro.service.service.StreamingService` drain whose pending
  events are all :class:`~repro.service.feeder.ChunkFeeder` pushes (see
  ``StreamingService.run``): every chunk is a job, ingesting over its
  session's own LAN link at its push instant.

Either way the chain is a feed-forward tandem of FIFO stations whose
placement is fixed before the first event: LAN links, an edge station
and a WAN uplink per edge, then the one cloud station every edge feeds.
On such a chain every service start is ``max(arrival, the instant a
worker frees up)`` and every end is ``start + service`` — the float
operations the event loop performs, on the same values, without the heap
or the callbacks.  :func:`replay_fleet` computes those instants pass by
pass (LAN per link, edge and WAN per edge, then one merged cloud pass),
together with the statistics the stations would have recorded.

Ties are where a recurrence can part from the loop.  The scheduler fires
simultaneous events in insertion order, and an event is inserted while
another one fires, so its place is decided by its time, then by the
event that inserted it, recursively.  Every event here keeps its time and
the event that inserted it (its *parent*), and :func:`_fires_before`
walks those chains only when two times are equal.  That walk decides
whether an admission finds a worker free, the order in which
simultaneous LAN deliveries of several links enter their edge and WAN
deliveries from different edges enter the cloud, and whether a
completion at the instant of an admission has already left the station
(which is what a queue-depth sample sees).  A feeder's push is inserted
by its previous push, so its parent is that push.

:class:`~repro.cluster.topology.StageChain` on an
:class:`~repro.dataflow.scheduler.EventScheduler` stays the definition:
runs with faults, hooks or control events go through it, and the
property tests hold this module to it at tolerance 0.0.
"""

from __future__ import annotations

import math
from array import array
from functools import cmp_to_key, partial, reduce
from heapq import heappush, heapreplace
from itertools import chain
from operator import add, attrgetter
from typing import (Callable, Dict, List, MutableSequence, NamedTuple,
                    Optional, Sequence, Tuple)

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
    """What :func:`replay_fleet` computed (the inputs of ``fold_report``,
    and what a streaming service commits into its live chain)."""

    #: Row ``s`` holds every job's event ``s`` instant (ingest, then the
    #: LAN, edge, WAN and cloud completions), one column per job.
    instants: np.ndarray
    lan_stats: List[StationStats]
    edge_stats: List[StationStats]
    wan_stats: List[StationStats]
    cloud_stats: StationStats
    camera_edge_bytes: int
    edge_cloud_bytes: int
    wan_transfer_seconds: float
    #: Per edge, its jobs in the order their WAN deliveries fire.
    delivered: List[Sequence[int]]
    #: Every job in the order its cloud completion fires.
    finished: Sequence[int]
    #: ``fires_before(x, y)``: whether event ``x`` fires before event ``y``.
    fires_before: Callable[[int, int], bool]
    #: ``started_by(e)``: the event that started the service completing at
    #: event ``e`` (its admission, or the completion that freed a worker).
    started_by: Callable[[int], int]


def _fires_before(x: int, y: int, when: MutableSequence[float],
                  parent: MutableSequence[int],
                  ties: Dict[Tuple[int, int], bool]) -> bool:
    """Whether event ``x`` fires before event ``y`` (``x != y``).

    Equal times fall back to the events that inserted them.  When one
    event inserted both, the downstream stage's direct start (made inside
    ``on_complete`` or the push) came before the dispatch of the station's
    next waiting job or the feeder's next push.  Events inserted before
    the run (parent ``-1``) are in job order and precede every event
    inserted while it runs.

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
           slots: int, when: MutableSequence[float],
           parent: MutableSequence[int], ties: Dict[Tuple[int, int], bool],
           stats: Optional[StationStats] = None
           ) -> Tuple[Sequence[int], StationStats]:
    """One FIFO station with ``slots`` workers.

    ``admitted`` holds job indices in the order their admission events
    fire.  Fills in ``when`` / ``parent`` of every job's completion event
    and returns the jobs in the order those completions fire (the next
    stage's admission order) with the station's statistics: busy seconds
    summed in completion order, and the peak of admitted-but-not-started
    jobs sampled at each admission.  The statistics are folded into
    ``stats`` (a fresh :class:`StationStats` by default), as a station
    that had served earlier runs would accrue them.
    """
    if stats is None:
        stats = StationStats()
    if slots == 1:
        return _serve_one(admitted, stage, service, when, parent, ties,
                          stats)
    peak = done = 0
    # (end, start order, job) of the jobs in service.
    in_service: List[Tuple[float, int, int]] = []
    completed: List[int] = []  # jobs, in the order their completions fire
    for rank, job in enumerate(admitted):
        event = EVENTS_PER_JOB * job + stage
        admission = event - 1
        arrival = when[admission]
        if rank < slots:
            parent[event] = admission
            end = arrival + service[job]
            heappush(in_service, (end, rank, job))
        else:
            # Completions fire in (end, start order); the earliest one
            # frees the worker this job takes.
            free, _, leaving = in_service[0]
            freed = EVENTS_PER_JOB * leaving + stage
            if arrival > free or (arrival == free and _fires_before(
                    freed, admission, when, parent, ties)):
                start = arrival
                parent[event] = admission
            else:
                start = free
                parent[event] = freed
                # Queued: the completions that fired before this
                # admission left; the ones in service did not.
                while done < len(completed):
                    left = EVENTS_PER_JOB * completed[done] + stage
                    if when[left] > arrival or (
                            when[left] == arrival and not _fires_before(
                                left, admission, when, parent, ties)):
                        break
                    done += 1
                if rank + 1 - done - slots > peak:
                    peak = rank + 1 - done - slots
            completed.append(leaving)
            end = start + service[job]
            heapreplace(in_service, (end, rank, job))
        when[event] = end
    completed.extend([job for _, _, job in sorted(in_service)])
    busy = stats.busy_seconds
    for job in completed:
        busy += service[job]
    return completed, _fold(stats, len(admitted), busy, peak)


def _serve_one(admitted: Sequence[int], stage: int, service: Sequence[float],
               when: MutableSequence[float], parent: MutableSequence[int],
               ties: Dict[Tuple[int, int], bool], stats: StationStats
               ) -> Tuple[Sequence[int], StationStats]:
    """:func:`_serve` on one worker, which needs no heap.

    Each start waits for the previous job's end, so completions fire in
    admission order: the worker a job takes is always freed by the job
    admitted just before it, the completions that can have fired before
    an admission are those of the jobs admitted before that one, and busy
    seconds accrue in admission order.
    """
    peak = done = 0
    busy = stats.busy_seconds
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
    return admitted, _fold(stats, len(admitted), busy, peak)


def _fold(stats: StationStats, jobs: int, busy: float,
          peak: int) -> StationStats:
    """``stats`` after ``jobs`` more arrived and completed."""
    stats.busy_seconds = busy
    stats.completed += jobs
    stats.arrivals += jobs
    stats.max_queue_depth = max(stats.max_queue_depth, peak)
    return stats


def _firing_order(jobs: List[int], stage: int, times: np.ndarray,
                  when: MutableSequence[float], parent: MutableSequence[int],
                  ties: Dict[Tuple[int, int], bool]) -> List[int]:
    """``jobs`` in the order their stage-``stage`` events fire (``times``
    holds every job's instant of that event): by time, then each run of
    equal times by :func:`_fires_before`.  The result holds the very int
    objects of ``jobs``."""
    arrived = times[jobs]
    order = np.argsort(arrived, kind="stable")
    ranked = arrived[order]
    tied = np.flatnonzero(ranked[1:] == ranked[:-1]).tolist()
    ordered = np.array(jobs, dtype=object)[order].tolist()

    def compare(a: int, b: int) -> int:
        return -1 if _fires_before(EVENTS_PER_JOB * a + stage,
                                   EVENTS_PER_JOB * b + stage,
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


def _transfer_seconds(sizes: List[int], bandwidth_mbps,
                      latency_ms) -> List[float]:
    """``NetworkLink.transfer_seconds`` of every size, as one float64
    column: the same float operations elementwise, so the same bits
    (``size * 8`` is exact in float64).  The bandwidth and latency are
    one link's, or a column of each size's own link."""
    column = np.array(sizes, dtype=np.float64)
    return ((column * 8) / (bandwidth_mbps * 1e6)
            + latency_ms / 1e3).tolist()


def replay_fleet(jobs: Sequence, placements: Sequence[int],
                 offsets: Sequence[float], config: SystemConfig,
                 num_edges: int, edge_workers: int, cloud_workers: int, *,
                 lan_keys: Optional[Sequence[int]] = None,
                 lan_links: Optional[Sequence[NetworkLink]] = None,
                 chained_ingests: bool = False,
                 stats: Optional[Tuple[Sequence[StationStats],
                                       Sequence[StationStats],
                                       Sequence[StationStats],
                                       StationStats]] = None
                 ) -> FleetReplay:
    """The fault-free chain's timelines and tier statistics.

    Args:
        jobs: The units of work: anything with ``camera_edge_bytes``,
            ``edge_seconds``, ``edge_cloud_bytes`` and ``cloud_seconds``
            (``CameraJob`` and ``FrameChunk`` store seconds as ``float``
            and bytes as ``int``).
        placements: Edge index of each job.
        offsets: Ingest instant of each job.
        config: Bandwidths and latencies of the WAN uplinks (and of the
            default LAN links).
        num_edges: Edge servers (one station and uplink each).
        edge_workers: Slots per edge station.
        cloud_workers: Slots of the cloud station.
        lan_keys: Each job's LAN link, an index into ``lan_links``; all
            jobs of one link are on one edge.  Default: one LAN link per
            edge, sized from ``config``, and each job ingests over its
            edge's.
        lan_links: The LAN links ``lan_keys`` index.
        chained_ingests: Each link's first ingest was inserted before the
            run and every later one by the ingest before it (a feeder's
            push by its previous push).  Default: every ingest was
            inserted before the run, in job order.
        stats: ``(lan, edge, wan, cloud)`` statistics the stations fold
            their runs into (default: fresh ones).
    """
    count = len(jobs)
    edges = np.asarray(placements, dtype=np.int64)
    del placements  # the caller may hand over its only reference
    if lan_keys is None:
        keys = edges
        lan = NetworkLink("camera-edge", config.camera_edge_bandwidth_mbps,
                          config.camera_edge_latency_ms)
        lan_links = [lan] * num_edges
        bandwidth, latency = lan.bandwidth_mbps, lan.latency_ms
    else:
        keys = np.asarray(lan_keys)
        bandwidth = np.array([link.bandwidth_mbps for link in lan_links],
                             dtype=np.float64)[keys]
        latency = np.array([link.latency_ms for link in lan_links],
                           dtype=np.float64)[keys]
    wan = NetworkLink("edge-cloud", config.edge_cloud_bandwidth_mbps,
                      config.edge_cloud_latency_ms)
    if stats is None:
        stats = ([StationStats() for _ in lan_links],
                 [StationStats() for _ in range(num_edges)],
                 [StationStats() for _ in range(num_edges)], StationStats())
    lan_stats, edge_stats, wan_stats, cloud_stats = stats

    # Ingests fire in (offset, job index) order; each LAN link admits its
    # own jobs in that order.
    ingest_order = np.lexsort((np.asarray(offsets, dtype=np.float64), keys))
    # The event graph in compact columns, 12 bytes an event: each event's
    # instant and the event that inserted it.  A memoryview indexes them
    # faster than the arrays do.
    when = memoryview(array("d", [0.0]) * (EVENTS_PER_JOB * count))
    when[0::EVENTS_PER_JOB] = array("d", offsets)
    del offsets  # the caller may hand over its only reference
    parent = memoryview(array("i", [-1]) * (EVENTS_PER_JOB * count))
    if chained_ingests:
        _chain_ingests(parent, keys, ingest_order)
    ties: Dict[Tuple[int, int], bool] = {}

    # Each column lives for its stage only.
    per_link = np.split(ingest_order, np.cumsum(
        np.bincount(keys, minlength=len(lan_links)))[:-1])
    lan_bytes = list(map(attrgetter("camera_edge_bytes"), jobs))
    camera_edge_bytes = sum(lan_bytes)
    lan_seconds = _transfer_seconds(lan_bytes, bandwidth, latency)
    del lan_bytes, bandwidth, latency
    through_lan = [_serve(admitted.tolist(), _LAN, lan_seconds, 1, when,
                          parent, ties, link_stats)[0]
                   for admitted, link_stats in zip(per_link, lan_stats)]
    del ingest_order, per_link, lan_seconds
    per_edge = (through_lan if lan_keys is None else _merge_by_edge(
        through_lan, keys, edges, num_edges, when, parent, ties))
    del through_lan, keys, edges

    edge_seconds = list(map(attrgetter("edge_seconds"), jobs))
    wan_bytes = list(map(attrgetter("edge_cloud_bytes"), jobs))
    edge_cloud_bytes = sum(wan_bytes)
    wan_seconds = _transfer_seconds(wan_bytes, wan.bandwidth_mbps,
                                    wan.latency_ms)
    del wan_bytes
    delivered, wan_totals = [], []
    for admitted, edge_stat, wan_stat in zip(per_edge, edge_stats,
                                             wan_stats):
        through_edge, _ = _serve(admitted, _EDGE, edge_seconds, edge_workers,
                                 when, parent, ties, edge_stat)
        order, _ = _serve(through_edge, _WAN, wan_seconds, 1,
                          when, parent, ties, wan_stat)
        delivered.append(order)
        # NetworkLink.total_seconds: folded in delivery order.
        wan_totals.append(reduce(add, map(wan_seconds.__getitem__, order),
                                 0.0))
    del per_edge, edge_seconds, wan_seconds

    # Every WAN delivery enters the one cloud, in the order they fire.
    finished, _ = _serve(
        _firing_order(list(chain.from_iterable(delivered)), _WAN,
                      np.frombuffer(when)[_WAN::EVENTS_PER_JOB],
                      when, parent, ties), _CLOUD,
        list(map(attrgetter("cloud_seconds"), jobs)), cloud_workers,
        when, parent, ties, cloud_stats)
    return FleetReplay(
        instants=np.frombuffer(when).reshape(count, EVENTS_PER_JOB).T,
        lan_stats=lan_stats, edge_stats=edge_stats, wan_stats=wan_stats,
        cloud_stats=cloud_stats,
        camera_edge_bytes=camera_edge_bytes,
        edge_cloud_bytes=edge_cloud_bytes,
        wan_transfer_seconds=reduce(add, wan_totals, 0.0), delivered=delivered,
        finished=finished,
        fires_before=partial(_fires_before, when=when, parent=parent,
                             ties=ties),
        started_by=parent.__getitem__)


def _chain_ingests(parent: MutableSequence[int], keys: np.ndarray,
                   ingest_order: np.ndarray) -> None:
    """Make each link's ingest after its first the child of the one
    before it."""
    later, earlier = ingest_order[1:], ingest_order[:-1]
    chained = keys[later] == keys[earlier]
    np.frombuffer(parent, dtype=np.intc)[EVENTS_PER_JOB * later[chained]] = (
        EVENTS_PER_JOB * earlier[chained])


def _merge_by_edge(through_lan: List[Sequence[int]], keys: np.ndarray,
                   edges: np.ndarray, num_edges: int,
                   when: MutableSequence[float], parent: MutableSequence[int],
                   ties: Dict[Tuple[int, int], bool]) -> List[Sequence[int]]:
    """Each edge's admissions: the deliveries of every LAN link feeding
    it, merged in the order they fire."""
    link_edges = np.zeros(len(through_lan), dtype=np.int64)
    link_edges[keys] = edges
    feeding: List[List[Sequence[int]]] = [[] for _ in range(num_edges)]
    for edge, order in zip(link_edges.tolist(), through_lan):
        if order:
            feeding[edge].append(order)
    lan_times = np.frombuffer(when)[_LAN::EVENTS_PER_JOB]
    per_edge: List[Sequence[int]] = []
    for orders in feeding:
        if len(orders) < 2:
            per_edge.append(orders[0] if orders else [])
            continue
        per_edge.append(_firing_order(list(chain.from_iterable(orders)),
                                      _LAN, lan_times, when, parent, ties))
    return per_edge
