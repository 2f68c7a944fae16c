"""Clock-driver contract: pacing changes timing, never the simulation."""

from __future__ import annotations

import pytest

from repro.dataflow.scheduler import EventScheduler
from repro.errors import ServiceError
from repro.service import RealTimeClock, VirtualClock


class FakeWall:
    """A controllable monotonic clock whose ``sleep`` advances it exactly."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start
        self.sleeps = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_clock(speedup: float = 1.0, start: float = 100.0):
    wall = FakeWall(start)
    return RealTimeClock(speedup=speedup, wall=wall, sleep=wall.sleep), wall


def trace_run(scheduler: EventScheduler, times):
    fired = []
    for event_time in times:
        scheduler.schedule_at(event_time,
                              lambda t=event_time: fired.append(t))
    return fired


class TestVirtualClock:
    def test_equivalent_to_scheduler_run(self):
        reference, driven = EventScheduler(), EventScheduler()
        fired_reference = trace_run(reference, [0.5, 1.0, 1.0, 3.0])
        fired_driven = trace_run(driven, [0.5, 1.0, 1.0, 3.0])
        count_reference = reference.run(until=1.5)
        count_driven = VirtualClock().run(driven, until=1.5)
        assert fired_reference == fired_driven
        assert count_reference == count_driven == 3
        assert reference.now == driven.now == 1.5
        assert reference.run() == VirtualClock().run(driven)
        assert fired_reference == fired_driven

    def test_describe(self):
        assert VirtualClock().describe() == "virtual"


class TestRealTimeClock:
    def test_rejects_non_positive_speedup(self):
        for speedup in (0.0, -1.0):
            with pytest.raises(ServiceError):
                RealTimeClock(speedup=speedup)

    @pytest.mark.parametrize("speedup", [
        float("nan"), float("inf"), "2", True, None])
    def test_speedup_is_a_positive_finite_real(self, speedup):
        """``nan`` was accepted and silently stopped pacing (``describe()``
        read ``speedup=nanx``), ``"2"`` raised a bare TypeError and
        ``True`` ran at 1x."""
        with pytest.raises(ServiceError, match="speedup"):
            RealTimeClock(speedup=speedup)

    def test_sleeps_match_event_spacing(self):
        clock, wall = make_clock(speedup=1.0)
        scheduler = EventScheduler()
        fired = trace_run(scheduler, [1.0, 2.5, 2.5, 4.0])
        assert clock.run(scheduler) == 4
        assert fired == [1.0, 2.5, 2.5, 4.0]
        # One sleep per distinct instant; the tied event needs no wait.
        assert wall.sleeps == pytest.approx([1.0, 1.5, 1.5])
        assert clock.total_sleep_seconds == pytest.approx(4.0)
        assert clock.max_lag_seconds == 0.0
        assert clock.events_fired == 4

    def test_speedup_divides_wall_time(self):
        clock, wall = make_clock(speedup=10.0)
        scheduler = EventScheduler()
        trace_run(scheduler, [5.0, 20.0])
        clock.run(scheduler)
        assert wall.sleeps == pytest.approx([0.5, 1.5])

    def test_until_boundary_matches_virtual_semantics(self):
        clock, wall = make_clock(speedup=1.0)
        scheduler = EventScheduler()
        fired = trace_run(scheduler, [1.0, 2.0, 3.0])
        assert clock.run(scheduler, until=2.0) == 2
        assert fired == [1.0, 2.0]        # event exactly at the horizon fires
        assert scheduler.now == 2.0
        assert scheduler.pending_events == 1
        # The idle tail of a bounded run is waited out in wall time.
        trace_run(scheduler, [])
        clock.run(scheduler, until=2.5)
        assert scheduler.now == 2.5
        assert wall.sleeps[-1] == pytest.approx(0.5)

    def test_records_lag_when_behind(self):
        clock, wall = make_clock(speedup=1.0)
        scheduler = EventScheduler()

        def slow_event():
            wall.advance(3.0)  # the event handler takes 3 wall seconds

        scheduler.schedule_at(1.0, slow_event)
        scheduler.schedule_at(2.0, lambda: None)
        clock.run(scheduler)
        # Event at t=2 was due 1 wall second after t=1, but the handler ate
        # 3 seconds: it fires 2 seconds late, immediately, with no sleep.
        assert clock.max_lag_seconds == pytest.approx(2.0)
        assert wall.sleeps == pytest.approx([1.0])

    def test_anchor_persists_across_runs(self):
        clock, wall = make_clock(speedup=1.0)
        scheduler = EventScheduler()
        trace_run(scheduler, [1.0])
        clock.run(scheduler)
        trace_run(scheduler, [2.0])
        clock.run(scheduler)
        # Second run paces against the original anchor: one more second.
        assert wall.sleeps == pytest.approx([1.0, 1.0])

    def test_simulation_identical_to_virtual_clock(self):
        times = [0.25, 0.25, 1.0, 1.75, 1.75, 1.75, 3.5]
        virtual_scheduler, real_scheduler = EventScheduler(), EventScheduler()
        virtual_fired = trace_run(virtual_scheduler, times)
        real_fired = trace_run(real_scheduler, times)
        VirtualClock().run(virtual_scheduler)
        clock, _ = make_clock(speedup=100.0)
        clock.run(real_scheduler)
        assert virtual_fired == real_fired
        assert virtual_scheduler.now == real_scheduler.now
        assert (virtual_scheduler.events_processed
                == real_scheduler.events_processed)

    def test_describe_mentions_speedup(self):
        assert "250" in RealTimeClock(speedup=250).describe()
