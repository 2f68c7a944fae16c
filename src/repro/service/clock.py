"""Clock drivers: one event engine, two notions of time.

The discrete-event core (:class:`repro.dataflow.scheduler.EventScheduler`)
is a *virtual* clock: ``run()`` fires events as fast as Python can, so one
simulated hour costs milliseconds.  A long-running service needs the same
event loop paced against *wall* time instead.  A :class:`ClockDriver` owns
exactly one decision — *when* to call :meth:`EventScheduler.step` — and
nothing else:

* :class:`VirtualClock` delegates straight to ``scheduler.run()`` — today's
  drain-the-heap behaviour, bit for bit.
* :class:`RealTimeClock` sleeps before each event until the event's virtual
  instant maps to the current wall clock under a configurable ``speedup``
  factor (``speedup=1`` is true real time; ``speedup=3600`` compresses an
  hour into a second).

Because a driver never changes what events do, their virtual times, or the
order they fire in (ties still break by submission sequence), a workload
produces an *identical* simulation under any driver — which is the parity
contract ``tests/service/test_parity_and_soak.py`` pins and
``examples/streaming_service.py`` asserts end to end.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..config import POSITIVE, real_number
from ..dataflow.scheduler import EventScheduler
from ..errors import ServiceError


class ClockDriver:
    """Strategy deciding when an :class:`EventScheduler` fires its events."""

    #: Human-readable driver name (surfaced in :class:`ServiceStatus`).
    name = "abstract"

    def run(self, scheduler: EventScheduler,
            until: Optional[float] = None) -> int:
        """Drive ``scheduler`` until its heap drains (or ``until`` passes).

        Must preserve :meth:`EventScheduler.run` horizon semantics: an event
        exactly at ``until`` fires, strictly later events stay queued, and
        the clock advances to ``until``.

        Returns:
            The number of events fired by this call.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """One-line description for logs and status snapshots."""
        return self.name


class VirtualClock(ClockDriver):
    """Fire events as fast as possible (the batch/simulation mode).

    ``run`` is a straight delegation to :meth:`EventScheduler.run`, so a
    virtual-clock service is bit-identical to the pre-service simulators.
    """

    name = "virtual"

    def run(self, scheduler: EventScheduler,
            until: Optional[float] = None) -> int:
        return scheduler.run(until=until)


class RealTimeClock(ClockDriver):
    """Pace :meth:`EventScheduler.step` against the wall clock.

    One virtual second occupies ``1 / speedup`` wall seconds.  The driver
    anchors (virtual time, wall time) on its first ``run`` call; before
    firing an event at virtual time ``t`` it sleeps until the wall clock
    reaches ``anchor_wall + (t - anchor_virtual) / speedup``.  Events whose
    wall deadline has already passed fire immediately and the shortfall is
    recorded in :attr:`max_lag_seconds` — the service health snapshot's
    measure of how far the loop is falling behind real time.

    Args:
        speedup: Virtual-to-wall time ratio (positive and finite).
        wall: Monotonic wall-clock source (injectable for deterministic
            tests; defaults to :func:`time.monotonic`).
        sleep: Sleep function (injectable for tests; :func:`time.sleep`).
    """

    name = "real-time"

    def __init__(self, speedup: float = 1.0, *,
                 wall: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        # A real-time clock without pacing is VirtualClock.
        real_number(speedup, "speedup", ServiceError, **POSITIVE)
        self.speedup = float(speedup)
        self._wall = wall
        self._sleep = sleep
        self._wall_anchor: Optional[float] = None
        self._virtual_anchor = 0.0
        #: Total wall seconds spent sleeping between events.
        self.total_sleep_seconds = 0.0
        #: Worst observed wall-clock lateness of any event (0 = on schedule).
        self.max_lag_seconds = 0.0
        #: Events fired through this driver across all ``run`` calls.
        self.events_fired = 0

    def describe(self) -> str:
        return f"{self.name} (speedup={self.speedup:g}x)"

    def _pace(self, virtual_time: float) -> None:
        """Sleep until ``virtual_time``'s wall deadline (record any lag)."""
        assert self._wall_anchor is not None
        target = (self._wall_anchor
                  + (virtual_time - self._virtual_anchor) / self.speedup)
        delay = target - self._wall()
        if delay > 0:
            self._sleep(delay)
            self.total_sleep_seconds += delay
        elif -delay > self.max_lag_seconds:
            self.max_lag_seconds = -delay

    def run(self, scheduler: EventScheduler,
            until: Optional[float] = None) -> int:
        if self._wall_anchor is None:
            self._wall_anchor = self._wall()
            self._virtual_anchor = scheduler.now
        fired = 0
        while True:
            next_time = scheduler.next_event_time
            if next_time is None or (until is not None and next_time > until):
                break
            self._pace(next_time)
            scheduler.step()
            fired += 1
        if until is not None and until > scheduler.now:
            # Idle tail of a bounded run: wait out the remaining horizon in
            # wall time, then advance the virtual clock to it (exactly what
            # `EventScheduler.run(until=...)` does instantaneously).
            self._pace(until)
            scheduler.advance_to(until)
        self.events_fired += fired
        return fired
