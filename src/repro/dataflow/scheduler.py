"""Discrete-event scheduler: the virtual clock every simulation shares.

Busy-time totals summed per tier cannot capture contention — two cameras,
or two stages of one job, would never compete for time.  This module is the
substrate that makes them compete: *everything that takes simulated time is
an event* on one shared clock.

* :class:`EventScheduler` — a heap-ordered virtual clock.  Events scheduled
  for the same instant fire in submission order, which makes every run
  bit-for-bit deterministic (see :mod:`repro.rng` for the seeding contract).
* :class:`ServiceStation` — a FIFO queue served by a fixed number of
  simulated workers.  Jobs wait, occupy a worker for their service time, then
  fire a completion callback.  The station records busy time, queue-depth
  peaks and completion counts, which is where per-tier utilisation and queue
  depth reporting come from.

The stage chain (:mod:`repro.cluster.topology`) builds its compute tiers
from stations, and :class:`~repro.net.contention.ContendedLink` queues a
link's transfers on one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from operator import itemgetter
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..config import FINITE, real_number, whole_number
from ..errors import DataflowError

Action = Callable[..., None]


class EventScheduler:
    """A shared virtual clock ordering simulated events.

    Events are ``(time, sequence, action, args)`` entries kept in a heap and
    fired as ``action(*args)``: an event carries its argument, so scheduling
    one builds no closure.  Ties in time break by submission sequence, so
    runs are deterministic regardless of callback content.  All components
    of one simulation (compute stations, links) must share a single
    scheduler — that is what makes their service times contend instead of
    merely accumulating.

    Attributes:
        now: Current virtual time in seconds.  Only the scheduler writes
            it; everything else reads.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Action, tuple]] = []
        self._sequence = 0
        self.now = 0.0

    @property
    def events_processed(self) -> int:
        """Events fired so far: every event ever scheduled is either still
        pending or has fired (the one firing now counts as fired)."""
        return self._sequence - len(self._heap)

    @property
    def pending_events(self) -> int:
        """Number of events not yet fired."""
        return len(self._heap)

    @property
    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next pending event (``None`` when idle).

        Clock drivers (:mod:`repro.service.clock`) peek at this to decide how
        long to pace before firing :meth:`step`.
        """
        return self._heap[0][0] if self._heap else None

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``time`` without firing any event.

        Used by horizon-bounded runs and real-time clock drivers to move the
        clock to a quiescent instant.  The target must be finite and must
        not lie in the past or beyond the next pending event (that event
        would then appear to fire late).
        """
        # Chained, like every guard below: nan fails it, ``time < now`` alone
        # would let nan through and a nan heap key reorders time.
        if not self.now <= time < inf:
            raise DataflowError(
                f"cannot advance to {time}s, clock is at {self.now:.6f}s")
        if self._heap and self._heap[0][0] < time:
            raise DataflowError(
                f"cannot advance to {time:.6f}s past the pending event at "
                f"{self._heap[0][0]:.6f}s")
        self.now = float(time)

    def schedule_at(self, time: float, action: Action, *args: Any) -> None:
        """Schedule ``action(*args)`` to fire at absolute virtual ``time``."""
        if not self.now <= time < inf:
            raise DataflowError(
                f"cannot schedule at {time}s, clock is at {self.now:.6f}s")
        heappush(self._heap, (float(time), self._sequence, action, args))
        self._sequence += 1

    def schedule(self, delay: float, action: Action, *args: Any) -> None:
        """Schedule ``action(*args)`` to fire ``delay`` seconds from now."""
        if not 0 <= delay < inf:
            raise DataflowError(
                f"event delay must be finite and >= 0, got {delay}")
        heappush(self._heap,
                 (float(self.now + delay), self._sequence, action, args))
        self._sequence += 1

    def _pending(self) -> List[Tuple[float, Action, tuple]]:
        """Every pending event as ``(time, action, args)``, in the order
        the events were scheduled (the order ties fire in)."""
        return [(time, action, args) for time, _, action, args
                in sorted(self._heap, key=itemgetter(1))]

    def _fired_offline(self, scheduled: int, now: float) -> None:
        """Account for a run computed without the heap: every pending
        event fired, ``scheduled`` more were scheduled and fired while it
        ran, and the clock stopped at ``now``."""
        self._heap.clear()
        self._sequence += scheduled
        self.now = now

    def step(self) -> bool:
        """Fire the next event; returns ``False`` when none remain.

        The one-event form :class:`~repro.service.clock.RealTimeClock`
        paces; :meth:`run` fires the same events from its own loop.
        """
        if not self._heap:
            return False
        self.now, _, action, args = heappop(self._heap)
        action(*args)
        return True

    def run(self, until: Optional[float] = None) -> int:
        """Fire events until the heap is empty (or ``until`` is reached).

        Horizon semantics (relied on by the real-time clock drivers and
        pinned by ``tests/service/test_horizon_accounting.py``): an event
        scheduled *exactly at* ``until`` fires, strictly later events stay
        queued, the clock always advances to ``until``, and a subsequent
        ``run()`` resumes from the untouched heap.  ``until`` must be
        finite.

        Returns:
            The number of events fired by this call.
        """
        horizon = inf if until is None else real_number(
            until, "run horizon", DataflowError, **FINITE)
        heap = self._heap
        already_fired = self.events_processed
        while heap and heap[0][0] <= horizon:
            self.now, _, action, args = heappop(heap)
            action(*args)
        if until is not None and until > self.now:
            self.advance_to(until)
        return self.events_processed - already_fired


@dataclass
class StationStats:
    """Accounting of one service station.

    Attributes:
        busy_seconds: Total service time consumed across all workers.
            Accrues when a job *finishes*, so a horizon-truncated run only
            counts completed service (in-flight pro-rating is available via
            :meth:`ServiceStation.busy_seconds_elapsed`).
        completed: Number of jobs (or batches) fully served.
        arrivals: Number of jobs submitted.
        max_queue_depth: Peak number of jobs waiting (excluding in service).
    """

    busy_seconds: float = 0.0
    completed: int = 0
    arrivals: int = 0
    max_queue_depth: int = 0


class _StationJob:
    """One job in a station.  Hashed by identity (no ``__eq__``): payloads
    may be numpy arrays, whose ``==`` is elementwise."""

    #: ``started_at`` is set when the job starts, not before.
    __slots__ = ("service_seconds", "on_complete", "payload", "on_fail",
                 "started_at")

    def __init__(self, service_seconds: float,
                 on_complete: Optional[Callable[[Any], None]], payload: Any,
                 on_fail: Optional[Callable[[Any, str], None]]) -> None:
        self.service_seconds = service_seconds
        self.on_complete = on_complete
        self.payload = payload
        self.on_fail = on_fail


class ServiceStation:
    """A FIFO queue served by ``capacity`` simulated workers.

    Args:
        scheduler: The shared event scheduler.
        name: Station name (used in reports).
        capacity: Number of jobs that can be in service simultaneously (a
            whole number >= 1).
    """

    def __init__(self, scheduler: EventScheduler, name: str,
                 capacity: int = 1) -> None:
        whole_number(capacity, "station capacity", DataflowError, least=1)
        self.scheduler = scheduler
        self.name = name
        self.capacity = int(capacity)
        self.stats = StationStats()
        #: Jobs that actually wait: a job submitted to an idle worker
        #: never enters it.
        self._queue: Deque[_StationJob] = deque()
        #: Jobs in service, in start order.
        self._active: Dict[_StationJob, None] = {}
        self._online = True

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting (excluding those in service)."""
        return len(self._queue)

    @property
    def in_service(self) -> int:
        """Jobs currently occupying a worker."""
        return len(self._active)

    @property
    def online(self) -> bool:
        """Whether the station is dispatching (see :meth:`pause`)."""
        return self._online

    def submit(self, service_seconds: float,
               on_complete: Optional[Callable[[Any], None]] = None,
               payload: Any = None,
               on_fail: Optional[Callable[[Any, str], None]] = None) -> None:
        """Submit a job taking ``service_seconds`` of worker time.

        **Direct start:** when the station is online, nothing is waiting and
        a worker is free, the job starts inside this call — it is never
        queued, and its completion is the one event
        ``schedule(service_seconds, finish, job)``.  Otherwise it joins the
        FIFO queue and starts when a completion (or :meth:`resume`) frees
        its turn.

        ``on_fail(payload, reason)`` fires only if the job is failed out
        by :meth:`fail_all` (the fault-injection plane); jobs submitted
        without it are silently dropped on failure.
        """
        if not 0 <= service_seconds < inf:
            raise DataflowError(
                f"service time must be finite and >= 0, got {service_seconds}")
        self._admit(_StationJob(float(service_seconds), on_complete, payload,
                                on_fail))

    def pause(self) -> None:
        """Stop dispatching queued jobs (fault-injection hook).

        In-service jobs run to completion; new and queued jobs wait until
        :meth:`resume`.  Pausing an already-paused station is a no-op.
        """
        self._online = False

    def resume(self) -> None:
        """Resume dispatching after :meth:`pause`."""
        self._online = True
        self._dispatch()

    def fail_all(self, reason: str = "fault") -> int:
        """Fail every queued and in-service job (fault-injection hook).

        In-service jobs are cancelled — their already-scheduled completion
        events fire as no-ops and their service time is *not* accrued (the
        work was lost, not done).  Each failed job's ``on_fail(payload,
        reason)`` then fires in deterministic order: in-service jobs in
        start order, then the queue in FIFO order.  A resubmitted job
        counts as a fresh arrival.

        Returns:
            The number of jobs failed.
        """
        failed: List[_StationJob] = list(self._active)
        self._active.clear()
        failed.extend(self._queue)
        self._queue.clear()
        for job in failed:
            if job.on_fail is not None:
                job.on_fail(job.payload, reason)
        return len(failed)

    def _admit(self, job: _StationJob) -> None:
        stats = self.stats
        stats.arrivals += 1
        queue = self._queue
        if not queue and self._online and len(self._active) < self.capacity:
            # Nobody to overtake and a worker free: start in this hop (the
            # body of the _dispatch loop, minus the queue).
            scheduler = self.scheduler
            job.started_at = scheduler.now
            self._active[job] = None
            scheduler.schedule(job.service_seconds, self._finish, job)
            return
        queue.append(job)
        # A worker can be free with jobs waiting only while _finish is
        # calling on_complete and that callback re-entered here.
        if self._online and len(self._active) < self.capacity:
            self._dispatch()
        # The only place depth can rise; jobs still waiting after dispatch
        # count toward the peak.
        if len(queue) > stats.max_queue_depth:
            stats.max_queue_depth = len(queue)

    def _dispatch(self) -> None:
        """Start waiting jobs while the station is online and a worker free."""
        queue, active, scheduler = self._queue, self._active, self.scheduler
        while self._online and queue and len(active) < self.capacity:
            job = queue.popleft()
            job.started_at = scheduler.now
            active[job] = None
            scheduler.schedule(job.service_seconds, self._finish, job)

    def _finish(self, job: _StationJob) -> None:
        try:
            del self._active[job]
        except KeyError:
            # The worker serving this job was failed out from under it by
            # fail_all; its completion event is a husk.
            return
        # Busy time accrues at completion, never at dispatch: a run cut off
        # at a horizon must not count unfinished service as consumed (which
        # used to push utilisation past 1.0 on truncated runs).
        stats = self.stats
        stats.busy_seconds += job.service_seconds
        stats.completed += 1
        if job.on_complete is not None:
            job.on_complete(job.payload)
        if self._queue:
            self._dispatch()

    def busy_seconds_elapsed(self, now: Optional[float] = None) -> float:
        """Service time actually consumed by ``now``, in-flight pro-rated.

        Completed jobs contribute their full service time; jobs still in
        service contribute only the slice between their start and ``now``
        (default: the scheduler clock).  This is the quantity a live
        snapshot must report — it can never exceed ``capacity * now``.
        """
        if now is None:
            now = self.scheduler.now
        elapsed = self.stats.busy_seconds
        for job in self._active:
            elapsed += min(max(now - job.started_at, 0.0), job.service_seconds)
        return elapsed

    def utilisation(self, makespan_seconds: float,
                    now: Optional[float] = None) -> float:
        """Fraction of worker time spent busy over ``makespan_seconds``.

        With ``now`` given, jobs still in service are pro-rated to that
        snapshot instant, so mid-run utilisation is exact and bounded by
        1.0; without it only completed service counts (which is the whole
        story once the station has drained).
        """
        if makespan_seconds <= 0:
            return 0.0
        busy = (self.stats.busy_seconds if now is None
                else self.busy_seconds_elapsed(now))
        return busy / (self.capacity * makespan_seconds)

