"""Tests for the discrete-event scheduler, stations and contended links."""

import pytest

from repro.dataflow import EventScheduler, ServiceStation
from repro.errors import DataflowError, NetworkError
from repro.net import ContendedLink, NetworkLink


class TestEventScheduler:
    def test_events_fire_in_time_then_submission_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(2.0, lambda: fired.append("late"))
        scheduler.schedule(1.0, lambda: fired.append("a"))
        scheduler.schedule(1.0, lambda: fired.append("b"))
        assert scheduler.run() == 3
        assert fired == ["a", "b", "late"]
        assert scheduler.now == pytest.approx(2.0)

    def test_negative_delay_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(DataflowError):
            scheduler.schedule(-0.1, lambda: None)

    def test_cannot_schedule_in_the_past(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        scheduler.run()
        with pytest.raises(DataflowError):
            scheduler.schedule_at(0.5, lambda: None)

    def test_run_until_bound(self):
        scheduler = EventScheduler()
        fired = []
        for delay in (1.0, 2.0, 3.0):
            scheduler.schedule(delay, lambda delay=delay: fired.append(delay))
        assert scheduler.run(until=2.5) == 2
        assert fired == [1.0, 2.0]
        assert scheduler.pending_events == 1
        assert scheduler.now == pytest.approx(2.5)


class TestServiceStation:
    def test_capacity_one_serialises_jobs(self):
        scheduler = EventScheduler()
        station = ServiceStation(scheduler, "edge", capacity=1)
        completions = []
        for _ in range(3):
            station.submit(1.0, on_complete=lambda _:
                           completions.append(scheduler.now))
        scheduler.run()
        assert completions == [pytest.approx(1.0), pytest.approx(2.0),
                               pytest.approx(3.0)]
        assert station.stats.busy_seconds == pytest.approx(3.0)
        assert station.stats.max_queue_depth == 2
        assert station.utilisation(3.0) == pytest.approx(1.0)

    def test_extra_capacity_runs_jobs_in_parallel(self):
        scheduler = EventScheduler()
        station = ServiceStation(scheduler, "cloud", capacity=3)
        completions = []
        for _ in range(3):
            station.submit(1.0, on_complete=lambda _:
                           completions.append(scheduler.now))
        scheduler.run()
        assert all(time == pytest.approx(1.0) for time in completions)
        assert station.stats.max_queue_depth == 0

    def test_invalid_arguments_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(DataflowError):
            ServiceStation(scheduler, "bad", capacity=0)
        station = ServiceStation(scheduler, "ok")
        with pytest.raises(DataflowError):
            station.submit(-1.0)


class TestContendedLink:
    def test_transfers_queue_on_shared_link(self):
        scheduler = EventScheduler()
        link = NetworkLink("wan", bandwidth_mbps=8.0, latency_ms=0.0)
        contended = ContendedLink(scheduler, link)
        done = []
        # 1 MB at 8 Mbps = 1 second each; the second waits for the first.
        contended.submit(int(1e6), "a", on_complete=lambda _:
                         done.append(scheduler.now))
        contended.submit(int(1e6), "b", on_complete=lambda _:
                         done.append(scheduler.now))
        scheduler.run()
        assert done == [pytest.approx(1.0), pytest.approx(2.0)]
        assert link.total_bytes == int(2e6)
        assert link.total_seconds == pytest.approx(2.0)
        assert contended.stats.max_queue_depth == 1

    def test_invalid_arguments_rejected(self):
        scheduler = EventScheduler()
        link = NetworkLink("wan", bandwidth_mbps=8.0)
        with pytest.raises(NetworkError):
            ContendedLink(scheduler, link, channels=0)
        with pytest.raises(NetworkError):
            ContendedLink(scheduler, link).submit(-1)

