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
or the callbacks.  :func:`replay_fleet` computes those instants stage by
stage, every station of a stage in one :func:`_station` call (every LAN
link, then every edge, every WAN uplink, then the cloud), together with
the statistics the stations would have recorded.

A job that starts at its arrival needs no step at all: its end is
``arrival + service``, its completion's parent its admission, written for
a whole stage in one array expression.  That *closed form* is exact for

* every job of a one-worker station outside a busy period — admissions
  arrive in order, so a job whose arrival is after the previous job's
  closed-form end (``a[r] > a[r-1] + s[r-1]``) and follows a job that
  started at its arrival starts at its own;
* every job of a station of several workers when, at each arrival, fewer
  closed-form ends than workers are at or after it (a tie counts as
  busy); completions then fire in (end, admission rank) order.

What is left takes the *scalar step*, Lindley's recursion ``start =
max(arrival, previous end)``: only the jobs of one-worker busy periods
(:func:`_busy_periods`), and a heap of the jobs in service for a station
of several workers where some job waits (:func:`_heap_station`).

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

from array import array
from functools import cmp_to_key, partial, reduce
from heapq import heappush, heapreplace
from itertools import accumulate
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
    #: Every job's LAN and WAN bytes, and the seconds each transfer takes.
    lan_bytes: List[int]
    wan_bytes: List[int]
    lan_seconds: np.ndarray
    wan_seconds: np.ndarray
    #: Every job in the order its WAN delivery fires, edge by edge.
    delivered: np.ndarray
    #: Jobs placed on each edge.
    edge_jobs: np.ndarray
    #: Every job in the order its cloud completion fires.
    finished: np.ndarray
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


def _station(admitted: np.ndarray, counts: np.ndarray, stage: int,
             service: np.ndarray, slots: int, when: MutableSequence[float],
             parent: MutableSequence[int], ties: Dict[Tuple[int, int], bool],
             stats: Sequence[StationStats]) -> np.ndarray:
    """Every FIFO station of one stage, each with ``slots`` workers.

    ``admitted`` holds job indices station by station, ``counts[i]`` of
    station ``i``, each in the order its admission events fire; ``service``
    holds every job's seconds.  Fills in ``when`` / ``parent`` of every
    job's completion event and returns the jobs, station by station, in
    the order those completions fire (the next stage's admission order).
    Each station's run is folded into ``stats[i]`` as a station that had
    served earlier runs would accrue it: busy seconds summed in completion
    order, and the peak of admitted-but-not-started jobs sampled at each
    admission.

    The closed form first: every job starts at its arrival, so its end is
    ``arrival + seconds`` and its completion's parent is its admission.
    On one worker that holds outside busy periods, and only jobs from one
    whose arrival does not clear the previous closed-form end
    (``a[r] <= a[r-1] + s[r-1]``) until the worker is found idle again
    take the scalar step (:func:`_busy_periods`).  On several workers it
    holds for a whole station when, at every arrival, fewer closed-form
    ends than slots are at or after it (a tie counts as busy); completions
    then fire in (end, admission rank) order.  A station where some job
    waits for one of several workers runs :func:`_heap_station`.
    """
    events = EVENTS_PER_JOB * admitted + stage
    instants = np.frombuffer(when)
    arrivals = instants[events - 1]
    ends = arrivals + service[admitted]
    instants[events] = ends
    np.frombuffer(parent, dtype=np.intc)[events] = events - 1
    del events
    bounds = (np.cumsum(counts) - counts).tolist()
    peaks = [0] * len(counts)
    if slots == 1:
        completed = admitted
        first = np.ones(len(admitted), dtype=bool)
        first[1:] = arrivals[1:] > ends[:-1]
        first[np.array(bounds, dtype=np.int64)[counts > 0]] = True
        waits = np.flatnonzero(~first)
        del first
        # Each station's waits, and its jobs as lists for the scalar step.
        lows = np.searchsorted(waits, bounds).tolist()
        highs = np.searchsorted(waits, np.add(bounds, counts)).tolist()
        for index, (start, count, low, high) in enumerate(zip(
                bounds, counts.tolist(), lows, highs)):
            if low < high:
                jobs = admitted[start:start + count]
                peaks[index] = _busy_periods(
                    (waits[low:high] - start).tolist(),
                    (EVENTS_PER_JOB * jobs + stage).tolist(),
                    arrivals[start:start + count].tolist(),
                    service[jobs].tolist(), when, parent, ties)
    else:
        completed = np.empty_like(admitted)
        for index, (start, count) in enumerate(zip(bounds, counts.tolist())):
            stop = start + count
            free = ends[start:stop]
            # Closed-form ends before each arrival, against the jobs
            # admitted before it.
            ended = np.searchsorted(np.sort(free), arrivals[start:stop])
            if (ended > np.arange(-slots, count - slots)).all():
                completed[start:stop] = admitted[start:stop][
                    np.argsort(free, kind="stable")]
            else:
                jobs = admitted[start:stop]
                completed[start:stop], peaks[index] = _heap_station(
                    jobs.tolist(), service[jobs].tolist(), stage, slots,
                    when, parent, ties)
    del arrivals, ends
    # Busy seconds accrue in completion order, a left fold per station.
    spent = service[completed]
    for start, count, peak, station in zip(bounds, counts.tolist(), peaks,
                                           stats):
        _fold(station, count, _left_fold(spent[start:start + count],
                                         station.busy_seconds), peak)
    return completed


#: Values a left fold turns into Python floats at a time.
_FOLD_SLICE = 2048


def _left_fold(values: np.ndarray, start: float) -> float:
    """``start + values[0] + values[1] + ...``, added left to right in
    Python floats (a ``sum`` may compensate, ``np.sum`` pairs), converted
    a bounded slice at a time."""
    for first in range(0, len(values), _FOLD_SLICE):
        start = reduce(add, values[first:first + _FOLD_SLICE].tolist(), start)
    return start


def _busy_periods(waits: List[int], events: List[int], arrivals: List[float],
                  seconds: List[float], when: MutableSequence[float],
                  parent: MutableSequence[int],
                  ties: Dict[Tuple[int, int], bool]) -> int:
    """The scalar step of a one-worker station (Lindley's recursion, ties
    settled by :func:`_fires_before`) over its busy periods; returns the
    peak queue depth.

    ``events`` holds the completion event of every job in admission order,
    and ``arrivals`` and ``seconds`` its admission instant and service
    time; ``waits`` holds the ranks whose arrival does not clear the
    previous job's closed-form end.  A period runs from such a rank until a
    job starts at its arrival: from there the closed form :func:`_station`
    wrote holds again.  Each start waits for the previous job's end, so
    completions fire in admission order: the worker a job takes is freed
    by the job admitted just before it, and the completions that can have
    fired before an admission are those of the jobs admitted before that
    one.  The job before a period's first started at its arrival, so every
    completion before that job's fired before the period's admissions.
    """
    peak = resume = 0
    stop = len(events)
    for rank in waits:
        if rank < resume:
            continue
        freed = events[rank - 1]
        free = when[freed]
        done = rank - 1
        while rank < stop:
            event = events[rank]
            admission = event - 1
            arrival = arrivals[rank]
            if arrival > free or (arrival == free and _fires_before(
                    freed, admission, when, parent, ties)):
                break
            parent[event] = freed
            free = when[event] = free + seconds[rank]
            # Queued: the completions that fired before this admission
            # left; the one in service did not.
            while done < rank - 1:
                left = events[done]
                if when[left] > arrival or (when[left] == arrival and not (
                        _fires_before(left, admission, when, parent, ties))):
                    break
                done += 1
            if rank - done > peak:
                peak = rank - done
            freed = event
            rank += 1
        resume = rank + 1
    return peak


def _heap_station(admitted: List[int], seconds: List[float], stage: int,
                  slots: int, when: MutableSequence[float],
                  parent: MutableSequence[int],
                  ties: Dict[Tuple[int, int], bool]) -> Tuple[List[int], int]:
    """One station with ``slots`` workers where some job waits: a heap of
    the jobs in service.  ``seconds`` is aligned with ``admitted``.
    Returns the jobs in the order their completions fire and the peak
    queue depth."""
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
            end = arrival + seconds[rank]
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
            end = start + seconds[rank]
            heapreplace(in_service, (end, rank, job))
        when[event] = end
    completed.extend([job for _, _, job in sorted(in_service)])
    return completed, peak


def _fold(stats: StationStats, jobs: int, busy: float,
          peak: int) -> StationStats:
    """``stats`` after ``jobs`` more arrived and completed."""
    stats.busy_seconds = busy
    stats.completed += jobs
    stats.arrivals += jobs
    stats.max_queue_depth = max(stats.max_queue_depth, peak)
    return stats


def _firing_order(jobs: np.ndarray, stage: int, times: np.ndarray,
                  when: MutableSequence[float], parent: MutableSequence[int],
                  ties: Dict[Tuple[int, int], bool],
                  groups: Optional[np.ndarray] = None) -> np.ndarray:
    """``jobs`` in the order their stage-``stage`` events fire (``times``
    holds every job's instant of that event): by time, then each run of
    equal times by :func:`_fires_before`.  With ``groups`` (every job's
    group) the jobs come group by group, each in the order it fires."""
    arrived = times[jobs]
    order = np.lexsort((arrived,) if groups is None
                       else (arrived, groups[jobs]))
    ordered = jobs[order]
    ranked = arrived[order]
    equal = ranked[1:] == ranked[:-1]
    if groups is not None:
        grouped = groups[ordered]
        equal &= grouped[1:] == grouped[:-1]
    tied = np.flatnonzero(equal).tolist()
    if not tied:
        return ordered
    ordered = ordered.tolist()

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
    return np.array(ordered, dtype=np.int64)


def _transfer_seconds(sizes: List[int], bandwidth_mbps,
                      latency_ms) -> np.ndarray:
    """``NetworkLink.transfer_seconds`` of every size, as one float64
    column: the same float operations elementwise, so the same bits
    (``size * 8`` is exact in float64).  The bandwidth and latency are
    one link's, or a column of each size's own link."""
    column = np.array(sizes, dtype=np.float64)
    return (column * 8) / (bandwidth_mbps * 1e6) + latency_ms / 1e3


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

    # Each column lives for its stage only; the result carries the
    # transfer columns.
    lan_bytes = list(map(attrgetter("camera_edge_bytes"), jobs))
    lan_seconds = _transfer_seconds(lan_bytes, bandwidth, latency)
    del bandwidth, latency
    through_lan = _station(
        ingest_order, np.bincount(keys, minlength=len(lan_links)), _LAN,
        lan_seconds, 1, when, parent, ties, lan_stats)
    del ingest_order
    # Each edge admits the deliveries of every LAN link feeding it, in the
    # order they fire.
    per_edge = (through_lan if lan_keys is None else _firing_order(
        through_lan, _LAN, np.frombuffer(when)[_LAN::EVENTS_PER_JOB], when,
        parent, ties, groups=edges))
    del through_lan, keys
    edge_jobs = np.bincount(edges, minlength=num_edges)
    del edges

    through_edge = _station(
        per_edge, edge_jobs, _EDGE,
        np.array(list(map(attrgetter("edge_seconds"), jobs)),
                 dtype=np.float64), edge_workers, when, parent, ties,
        edge_stats)
    del per_edge
    wan_bytes = list(map(attrgetter("edge_cloud_bytes"), jobs))
    wan_seconds = _transfer_seconds(wan_bytes, wan.bandwidth_mbps,
                                    wan.latency_ms)
    delivered = _station(through_edge, edge_jobs, _WAN, wan_seconds, 1,
                         when, parent, ties, wan_stats)
    del through_edge
    # NetworkLink.total_seconds: folded in delivery order, link by link.
    wan_transfer_seconds = 0.0
    for start, jobs_of_edge in zip(accumulate(edge_jobs.tolist(), initial=0),
                                   edge_jobs.tolist()):
        wan_transfer_seconds += _left_fold(
            wan_seconds[delivered[start:start + jobs_of_edge]], 0.0)

    # Every WAN delivery enters the one cloud, in the order they fire.
    finished = _station(
        _firing_order(delivered, _WAN,
                      np.frombuffer(when)[_WAN::EVENTS_PER_JOB],
                      when, parent, ties), np.array([count]), _CLOUD,
        np.array(list(map(attrgetter("cloud_seconds"), jobs)),
                 dtype=np.float64), cloud_workers, when, parent, ties,
        [cloud_stats])
    return FleetReplay(
        instants=np.frombuffer(when).reshape(count, EVENTS_PER_JOB).T,
        lan_stats=lan_stats, edge_stats=edge_stats, wan_stats=wan_stats,
        cloud_stats=cloud_stats,
        camera_edge_bytes=sum(lan_bytes),
        edge_cloud_bytes=sum(wan_bytes),
        wan_transfer_seconds=wan_transfer_seconds,
        lan_bytes=lan_bytes, wan_bytes=wan_bytes, lan_seconds=lan_seconds,
        wan_seconds=wan_seconds, delivered=delivered, edge_jobs=edge_jobs,
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
