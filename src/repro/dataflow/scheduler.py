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

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..errors import DataflowError

Action = Callable[[], None]


class EventScheduler:
    """A shared virtual clock ordering simulated events.

    Events are ``(time, action)`` pairs kept in a heap; ties in time break by
    submission order, so runs are deterministic regardless of callback
    content.  All components of one simulation (compute stations, links)
    must share a single scheduler — that is what makes their service times
    contend instead of merely accumulating.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Action]] = []
        self._sequence = 0
        self._now = 0.0
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

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
        clock to a quiescent instant.  The target must not lie in the past or
        beyond the next pending event (that event would then appear to fire
        late).
        """
        if time < self._now:
            raise DataflowError(
                f"cannot advance to {time:.6f}s, clock is at {self._now:.6f}s")
        if self._heap and self._heap[0][0] < time:
            raise DataflowError(
                f"cannot advance to {time:.6f}s past the pending event at "
                f"{self._heap[0][0]:.6f}s")
        self._now = float(time)

    def schedule_at(self, time: float, action: Action) -> None:
        """Schedule ``action`` to fire at absolute virtual ``time``."""
        if time < self._now:
            raise DataflowError(
                f"cannot schedule at {time:.6f}s, clock is at {self._now:.6f}s")
        heapq.heappush(self._heap, (float(time), self._sequence, action))
        self._sequence += 1

    def schedule(self, delay: float, action: Action) -> None:
        """Schedule ``action`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise DataflowError(f"event delay must be >= 0, got {delay}")
        self.schedule_at(self._now + delay, action)

    def step(self) -> bool:
        """Fire the next event; returns ``False`` when none remain."""
        if not self._heap:
            return False
        time, _, action = heapq.heappop(self._heap)
        self._now = time
        self.events_processed += 1
        action()
        return True

    def run(self, until: Optional[float] = None) -> int:
        """Fire events until the heap is empty (or ``until`` is reached).

        Horizon semantics (relied on by the real-time clock drivers and
        pinned by ``tests/service/test_horizon_accounting.py``): an event
        scheduled *exactly at* ``until`` fires, strictly later events stay
        queued, the clock always advances to ``until``, and a subsequent
        ``run()`` resumes from the untouched heap.

        Returns:
            The number of events fired by this call.
        """
        fired = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            self.step()
            fired += 1
        if until is not None and until > self._now:
            self.advance_to(until)
        return fired


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


# eq=False: jobs are tracked by identity while in flight (payloads may be
# numpy arrays, whose ``==`` is elementwise and cannot back list removal).
@dataclass(eq=False)
class _StationJob:
    service_seconds: float
    on_complete: Optional[Callable[[Any], None]]
    payload: Any
    on_start: Optional[Callable[[Any], None]] = None
    started_at: float = 0.0
    on_fail: Optional[Callable[[Any, str], None]] = None
    # Set by fail_all on in-service jobs: their already-scheduled
    # completion events fire as no-ops.
    cancelled: bool = False


class ServiceStation:
    """A FIFO queue served by ``capacity`` simulated workers.

    Args:
        scheduler: The shared event scheduler.
        name: Station name (used in reports).
        capacity: Number of jobs that can be in service simultaneously.
    """

    def __init__(self, scheduler: EventScheduler, name: str,
                 capacity: int = 1) -> None:
        if capacity < 1:
            raise DataflowError(f"station capacity must be >= 1, got {capacity}")
        self.scheduler = scheduler
        self.name = name
        self.capacity = capacity
        self.stats = StationStats()
        self._queue: Deque[_StationJob] = deque()
        self._active: List[_StationJob] = []
        self._in_service = 0
        self._online = True

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting (excluding those in service)."""
        return len(self._queue)

    @property
    def in_service(self) -> int:
        """Jobs currently occupying a worker."""
        return self._in_service

    @property
    def online(self) -> bool:
        """Whether the station is dispatching (see :meth:`pause`)."""
        return self._online

    def submit(self, service_seconds: float,
               on_complete: Optional[Callable[[Any], None]] = None,
               payload: Any = None,
               on_start: Optional[Callable[[Any], None]] = None,
               on_fail: Optional[Callable[[Any, str], None]] = None) -> None:
        """Enqueue a job taking ``service_seconds`` of worker time.

        ``on_start(payload)`` fires the moment the job leaves the queue and
        occupies a worker (the same instant its completion event is
        scheduled) — which is the insertion-order key for simultaneous
        completions, used by the multiprocess decomposition to reproduce
        the single-scheduler tie-breaking.

        ``on_fail(payload, reason)`` fires only if the job is failed out
        by :meth:`fail_all` (the fault-injection plane); jobs submitted
        without it are silently dropped on failure.
        """
        if service_seconds < 0:
            raise DataflowError(
                f"service time must be >= 0, got {service_seconds}")
        self.stats.arrivals += 1
        self._queue.append(_StationJob(float(service_seconds), on_complete,
                                       payload, on_start, on_fail=on_fail))
        self._try_start()

    def pause(self) -> None:
        """Stop dispatching queued jobs (fault-injection hook).

        In-service jobs run to completion; new and queued jobs wait until
        :meth:`resume`.  Pausing an already-paused station is a no-op.
        """
        self._online = False

    def resume(self) -> None:
        """Resume dispatching after :meth:`pause`."""
        self._online = True
        self._try_start()

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
        failed: List[_StationJob] = []
        for job in self._active:
            job.cancelled = True
            failed.append(job)
        self._active.clear()
        self._in_service = 0
        failed.extend(self._queue)
        self._queue.clear()
        for job in failed:
            if job.on_fail is not None:
                job.on_fail(job.payload, reason)
        return len(failed)

    def _try_start(self) -> None:
        while self._online and self._queue and self._in_service < self.capacity:
            job = self._queue.popleft()
            self._in_service += 1
            job.started_at = self.scheduler.now
            self._active.append(job)
            if job.on_start is not None:
                job.on_start(job.payload)
            self.scheduler.schedule(job.service_seconds,
                                    lambda job=job: self._finish(job))
        # Only jobs still waiting after dispatch count toward the peak depth.
        self.stats.max_queue_depth = max(self.stats.max_queue_depth,
                                         len(self._queue))

    def _finish(self, job: _StationJob) -> None:
        if job.cancelled:
            # The worker serving this job was failed out from under it by
            # fail_all; its completion event is a husk.
            return
        self._in_service -= 1
        self._active.remove(job)
        # Busy time accrues at completion, never at dispatch: a run cut off
        # at a horizon must not count unfinished service as consumed (which
        # used to push utilisation past 1.0 on truncated runs).
        self.stats.busy_seconds += job.service_seconds
        self.stats.completed += 1
        if job.on_complete is not None:
            job.on_complete(job.payload)
        self._try_start()

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

