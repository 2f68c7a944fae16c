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
a whole stage in one array expression.  Where jobs wait, the stations
still work on columns:

* **One worker** (every LAN link and WAN uplink, and every edge at
  ``edge_workers=1``).  Lindley's recursion ``e[r] = max(a[r], e[r-1]) +
  s[r]`` has no cheaper scalar form, but inside a busy period it is the
  running sum ``a[p] + s[p] + s[p+1] + ...`` from the job ``p`` that
  opened it, and ``np.add.accumulate`` adds a column left to right, one
  value at a time: the same float additions in the same order, so the same
  bits.  Which jobs open a period is a fixed point over the whole stage
  (:func:`_busy_ends`): runs split where an arrival clears the closed-form
  end, are summed as the columns of zero-padded matrices bucketed by
  power-of-two length, and merge where the sums swallow the next run's
  start, until none does.
* **Several workers** (the cloud).  The closed form holds up to the first
  rank at which as many earlier ends as workers are at or after the
  arrival (a tie counts as busy).  From there a heap of the jobs in
  service steps the jobs until a worker is free again, and the check
  resumes (:func:`_pool_ends`).  Completions fire in (end, admission rank)
  order, a stable sort.

A tie cannot move an end: when an arrival equals the instant a worker
frees up, the start is the same float whichever event fired first.  It
decides only the completion's parent and whether the job counts in the
queue depth, so ties are settled after the ends, tie by tie.  The busy
seconds and a link's ``total_seconds`` are the same exact running sums
(:func:`_left_folds`).

On the benchmark's fleet (8,192 jobs at offset 0 on 64 edges), every job
waits at its LAN link and nearly every one at its edge, and 2 of the
8,192 wait for one of the 64 cloud workers.  Before the columns, a Python
loop stepped each waiting one-worker job, and the whole cloud ran on a
heap because of those two: in-process medians on a 2-core x86-64, the
one-worker stages took 4.8 ms before and 2.6 ms after, the cloud 3.9 ms
and 1.2 ms.

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
from functools import cmp_to_key, partial
from heapq import heapreplace
from operator import attrgetter, itemgetter
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

    One worker: the ends are :func:`_busy_ends`, every station's busy
    periods as exact running sums.  A job whose arrival is before the
    previous end waited, and the previous job's completion started it.
    At a tie (arrival equal to the previous end) the start is the same
    float either way, so the end is settled and only the parent is left:
    :func:`_fires_before` decides it, tie by tie in rank order (a walk
    reads only earlier ranks' parents).  Completions fire in admission
    order.

    Several workers: :func:`_pool_ends`, station by station, the closed
    form with a heap only where jobs wait.  Completions fire in (end,
    admission rank) order, a stable sort of the ends.

    Either way :func:`_peak_depths` gives the peak queue depths, and the
    busy seconds are :func:`_left_folds` of the services in completion
    order.
    """
    events = EVENTS_PER_JOB * admitted + stage
    instants = np.frombuffer(when)
    parents = np.frombuffer(parent, dtype=np.intc)
    arrivals = instants[events - 1]
    seconds = service[admitted]
    bounds = counts.cumsum() - counts
    parents[events] = events - 1
    if slots == 1:
        first = np.zeros(len(admitted), dtype=bool)
        first[bounds[counts > 0]] = True
        ends = _busy_ends(arrivals, seconds, first)
        instants[events] = ends
        follows = ~first[1:]
        waited = follows & (arrivals[1:] < ends[:-1])
        parents[events[1:][waited]] = events[:-1][waited]
        tied = (follows & (arrivals[1:] == ends[:-1])).nonzero()[0]
        for event, freed in zip(events[1:][tied].tolist(),
                                events[tied].tolist()):
            if not _fires_before(freed, event - 1, when, parent, ties):
                parent[event] = freed
        completed = admitted
    else:
        ends = arrivals + seconds
        instants[events] = ends
        completed = np.empty_like(admitted)
        for start, stop in zip(bounds.tolist(), (bounds + counts).tolist()):
            completed[start:stop] = admitted[start:stop][_pool_ends(
                arrivals[start:stop], seconds[start:stop], ends[start:stop],
                events[start:stop], slots, when, parent,
                ties).argsort(kind="stable")]
    del arrivals, seconds
    peaks = _peak_depths(events, EVENTS_PER_JOB * completed + stage, counts,
                         slots, when, parent, ties)
    busy = _left_folds([station.busy_seconds for station in stats],
                       service[completed], counts)
    for station, count, total, peak in zip(stats, counts.tolist(), busy,
                                           peaks):
        _fold(station, count, total, peak)
    return completed


def _busy_ends(arrivals: np.ndarray, seconds: np.ndarray,
               first: np.ndarray) -> np.ndarray:
    """The ends of one-worker stations laid out back to back (``first``
    flags each station's first job): Lindley's ``end = max(arrival,
    previous end) + seconds``, bit for bit.

    A busy period from a job that starts at its arrival is a running sum,
    ``a[p] + s[p] + s[p+1] + ...``: the recursion's own additions, in its
    order.  Which jobs start one is a fixed point over runs, each starting
    at a job whose arrival is at or after the previous end (a tie starts
    at the same float either way).  The first runs are split by the
    closed-form ends ``a + s``, which are lower bounds of the true ones,
    so every busy period starts at a run start.  Each round sums runs with
    :func:`_running_sums`, then merges every run whose start the new ends
    swallow (its arrival before the previous end) into the run before it.
    A merged run's sum also runs on across up to ``reach`` following runs
    and stops at the first start it does not swallow, and ``reach``
    doubles every round, so one long service that swallows a cascade of
    runs takes a logarithmic number of rounds.  A run's sum never exceeds
    the true ends and runs only merge, so the rounds stop, at Lindley's
    ends.
    """
    count = len(arrivals)
    ends = arrivals + seconds
    starts = first.copy()
    starts[1:] |= arrivals[1:] >= ends[:-1]
    runs = starts.nonzero()[0]
    stops = np.append(runs[1:], count)
    longer = stops - runs > 1
    lows, highs = runs[longer], stops[longer]
    reach = 1
    while len(lows):
        lengths = highs - lows
        offsets = lengths.cumsum() - lengths
        span = np.arange(int(offsets[-1] + lengths[-1]))
        at = (lows - offsets).repeat(lengths) + span
        sums = _running_sums(arrivals[lows], seconds[at], lengths)
        # The merged run stops at the first run start it does not swallow.
        head = np.zeros(len(at), dtype=bool)
        head[offsets] = True
        kept = (~head[1:] & starts[at[1:]]
                & (arrivals[at[1:]] >= sums[:-1])).nonzero()[0] + 1
        cut = (offsets + lengths).repeat(lengths)
        cut[kept] = kept
        inside = span < np.minimum.reduceat(cut, offsets).repeat(lengths)
        ends[at[inside]] = sums[inside]
        starts[at[inside & ~head]] = False
        # Runs whose start the new ends swallow, in chains: each chain
        # merges into the run before it and runs on.
        runs = starts.nonzero()[0]
        swallowed = np.zeros(len(runs) + 2, dtype=np.int8)
        swallowed[1:-1] = ~first[runs] & (arrivals[runs] < ends[runs - 1])
        edge = swallowed[1:] - swallowed[:-1]
        heads = (edge == 1).nonzero()[0] - 1
        barriers = np.append(first[runs].nonzero()[0], len(runs))
        tails = np.minimum(
            np.minimum((edge == -1).nonzero()[0] + reach,
                       np.append(heads[1:], len(runs))),
            barriers[barriers.searchsorted(heads, "right")])
        lows, highs = runs[heads], np.append(runs, count)[tails]
        reach *= 2
    return ends


#: Ranks a closed-form check covers at first after a heap segment.
_WINDOW = 32


def _pool_ends(arrivals: np.ndarray, seconds: np.ndarray, ends: np.ndarray,
               events: np.ndarray, slots: int, when: MutableSequence[float],
               parent: MutableSequence[int],
               ties: Dict[Tuple[int, int], bool]) -> np.ndarray:
    """The ends of one station of ``slots`` workers, in admission order.

    ``ends`` holds the closed form on entry (as do the completions'
    ``when`` and ``parent``) and is corrected in place.  The closed form
    holds up to the first rank at which ``slots`` earlier ends are at or
    after its arrival (a tie counts as busy).  Only the ``slots`` largest
    (end, rank) keys so far can be among them: if any other end is, so is
    each of those.  From that rank a heap of those keys, the jobs in
    service, steps the jobs as the workers take them, until the station
    has a free worker again (the next arrival is after the earliest end in
    service), and the check resumes there with the keys in the heap.

    The first check covers the whole station; after a heap segment a
    check covers ``_WINDOW`` ranks, or twice the closed-form stretch
    before it, and doubles while it passes.  A heap segment that follows
    a stretch shorter than ``_WINDOW`` runs at least twice as many steps
    as the one before it, so where jobs wait often the heap takes over
    rather than the checks.
    """
    count = len(arrivals)
    # The (end, rank) keys that can still be in service, in rank order.
    held_ends, held_ranks = ends[:0], np.arange(0)
    position = resumed = 0
    window, steps = count, 1
    while position < count:
        stop = min(position + window, count)
        pool = np.concatenate((held_ends, ends[position:stop]))
        ranks = np.concatenate((held_ranks, np.arange(position, stop)))
        order = pool.argsort(kind="stable")
        busy = (len(held_ends) + np.arange(stop - position)
                - pool[order].searchsorted(arrivals[position:stop]))
        waits = (busy >= slots).nonzero()[0]
        if not len(waits):
            top = np.sort(order[-slots:])
            held_ends, held_ranks = pool[top], ranks[top]
            position, window = stop, 2 * window
            continue
        rank = position + int(waits[0])
        top = order[order < len(held_ends) + rank - position][-slots:]
        # (end, rank, completion event) of the jobs in service.
        in_service = list(zip(pool[top].tolist(), ranks[top].tolist(),
                              events[ranks[top]].tolist()))
        steps = 1 if rank - resumed >= _WINDOW else 2 * steps
        stepped = []
        step, arrival = rank, arrivals.item(rank)
        while True:
            # The earliest (end, rank) in service frees the worker.
            free, _, freed = in_service[0]
            event = events.item(step)
            if arrival > free or (arrival == free and _fires_before(
                    freed, event - 1, when, parent, ties)):
                end = arrival + seconds.item(step)
            else:
                end = free + seconds.item(step)
                parent[event] = freed
            when[event] = end
            heapreplace(in_service, (end, step, event))
            stepped.append(end)
            step += 1
            if step == count:
                break
            arrival = arrivals.item(step)
            if step - rank >= steps and arrival > in_service[0][0]:
                break
        ends[rank:step] = stepped
        in_service.sort(key=itemgetter(1))
        held = np.array(in_service)
        held_ends, held_ranks = held[:, 0], held[:, 1].astype(np.int64)
        window = max(_WINDOW, 2 * (rank - resumed))
        position = resumed = step
    return ends


def _peak_depths(events: np.ndarray, finishes: np.ndarray,
                 counts: np.ndarray, slots: int, when: MutableSequence[float],
                 parent: MutableSequence[int],
                 ties: Dict[Tuple[int, int], bool]) -> List[int]:
    """Each station's peak of admitted-but-not-started jobs, sampled at
    each admission.

    ``events`` are the jobs' completion events in admission order and
    ``finishes`` in the order they fire, station by station.  A job that
    waited (its completion's parent is not its admission) at rank ``r``
    finds ``r + 1 - slots - done`` jobs queued, ``done`` the completions
    that fired before its admission: a prefix of ``finishes``, every end
    before the arrival and then those at its instant that
    :func:`_fires_before` puts first.  The completion that freed the job's
    worker, at place ``r - slots``, did not fire first, so ``done`` stays
    below it.  One search counts the ends before every arrival; the walk
    runs only where a tie could raise a station's peak.
    """
    peaks = [0] * len(counts)
    waited = (np.frombuffer(parent, dtype=np.intc)[events]
              != events - 1).nonzero()[0]
    if not len(waited):
        return peaks
    instants = np.frombuffer(when)
    bounds = counts.cumsum() - counts
    station = np.arange(len(counts)).repeat(counts)
    at = station[waited]
    first = bounds[at]
    queued = waited - first + 1 - slots
    # (station, instant) as complex numbers, which numpy orders
    # lexicographically: one search covers every station.
    finished = _station_keys(station, instants[finishes])
    arrived = _station_keys(at, instants[events[waited] - 1])
    before = finished.searchsorted(arrived, "left") - first
    tied = np.minimum(finished.searchsorted(arrived, "right") - first,
                      queued - 1)
    del station, finished, arrived
    # Each station's peak if every completion at an arrival's instant
    # fired first; a tie that did not can only raise it.
    changes = np.ones(len(at), dtype=bool)
    changes[1:] = at[1:] != at[:-1]
    lows = np.maximum.reduceat(queued - tied, changes.nonzero()[0])
    for index, peak in zip(at[changes].tolist(), lows.tolist()):
        peaks[index] = peak
    unsettled = ((before < tied)
                 & (queued - before > lows[changes.cumsum() - 1])).nonzero()[0]
    for index, done, bound, base, depth, admission in zip(
            at[unsettled].tolist(), before[unsettled].tolist(),
            tied[unsettled].tolist(), first[unsettled].tolist(),
            queued[unsettled].tolist(),
            (events[waited[unsettled]] - 1).tolist()):
        while done < bound and _fires_before(
                int(finishes[base + done]), admission, when, parent, ties):
            done += 1
        peaks[index] = max(peaks[index], depth - done)
    return peaks


def _station_keys(station: np.ndarray, instants: np.ndarray) -> np.ndarray:
    """``station + instant * 1j``, built without complex arithmetic."""
    keys = np.empty(len(instants), dtype=np.complex128)
    keys.real = station
    keys.imag = instants
    return keys


def _padded_columns(values: np.ndarray, lengths: np.ndarray, fill: float
                    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray]]:
    """The runs of ``lengths[i]`` consecutive ``values`` as the columns of
    padded matrices, one per power-of-two bucket of run lengths, so that
    padding at most doubles a run.  Each is ``(runs, index, inside,
    grid)``: the runs it holds, the place in ``values`` of every cell
    ``inside`` a run (row-major), and ``grid``, ``fill`` outside them."""
    offsets = lengths.cumsum() - lengths
    sizes = np.frexp(np.maximum(lengths - 1, 0))[1]
    sizes[lengths == 0] = -1
    matrices = []
    for size in (np.bincount(sizes + 1)[1:].nonzero()[0]).tolist():
        runs = (sizes == size).nonzero()[0]
        rows = np.arange(1 << size)[:, None]
        inside = rows < lengths[runs]
        index = (offsets[runs] + rows)[inside]
        grid = np.empty(inside.shape)
        grid.fill(fill)
        grid[inside] = values[index]
        matrices.append((runs, index, inside, grid))
    return matrices


def _running_sums(heads: np.ndarray, values: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """``heads[i] + v[0]``, ``heads[i] + v[0] + v[1]``, ... over each run
    ``v`` of ``lengths[i]`` consecutive ``values``, laid out like them.
    ``np.add.accumulate`` down a column adds left to right, one value at
    a time: a scalar fold's additions in its order, so its bits."""
    sums = np.empty(len(values))
    for runs, index, inside, grid in _padded_columns(values, lengths, 0.0):
        grid[0] += heads[runs]
        sums[index] = np.add.accumulate(grid, axis=0)[inside]
    return sums


def _left_folds(heads: Sequence[float], values: np.ndarray,
                lengths: np.ndarray) -> List[float]:
    """``heads[i] + v[0] + v[1] + ...`` over each run ``v`` of
    ``lengths[i]`` consecutive ``values``, added left to right (a ``sum``
    may compensate, ``np.sum`` pairs): the last of :func:`_running_sums`,
    or the head of an empty run."""
    totals = np.array(heads, dtype=np.float64)
    filled = lengths > 0
    totals[filled] = _running_sums(totals, values, lengths)[
        (lengths.cumsum() - 1)[filled]]
    return totals.tolist()


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
    for seconds_of_edge in _left_folds([0.0] * num_edges,
                                       wan_seconds[delivered], edge_jobs):
        wan_transfer_seconds += seconds_of_edge

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
