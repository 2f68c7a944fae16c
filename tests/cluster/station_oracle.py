"""The one-station recurrence as it stood before stations were served a
stage at a time: :func:`_serve` (a heap of the jobs in service) and
:func:`_serve_one` (one worker, no heap), scalar steps over every job.

``repro.cluster.recurrence._station`` must fill in the same ``when`` /
``parent`` bits, return the same completion order and fold the same
:class:`~repro.dataflow.scheduler.StationStats`; the property tests in
``test_station_closed_form.py`` hold it to these at tolerance 0.0.
"""

from __future__ import annotations

import math
from heapq import heappush, heapreplace
from typing import Dict, List, MutableSequence, Optional, Sequence, Tuple

from repro.cluster.recurrence import EVENTS_PER_JOB, _fires_before, _fold
from repro.dataflow.scheduler import StationStats


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
