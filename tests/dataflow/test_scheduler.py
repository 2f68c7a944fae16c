"""Tests for the discrete-event scheduler, stations and contended links."""

import pytest

from repro.dataflow import EventScheduler, ServiceStation
from repro.errors import DataflowError, NetworkError
from repro.net import ContendedLink, NetworkLink

NAN, INF = float("nan"), float("inf")


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

    def test_events_carry_their_arguments(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, fired.append, "relative")
        scheduler.schedule_at(0.5, lambda *args: fired.append(args), 1, 2)
        scheduler.schedule(2.0, lambda: fired.append("bare"))
        assert scheduler.run() == 3
        assert fired == [(1, 2), "relative", "bare"]

    def test_a_nan_delay_cannot_reorder_time(self):
        """A nan heap key breaks the heap invariant: at the parent this
        fired c, d, b, a — the 1.0 s event before the 0.5 s one."""
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(2.0, fired.append, "a")
        with pytest.raises(DataflowError):
            scheduler.schedule(NAN, fired.append, "b")
        scheduler.schedule(1.0, fired.append, "c")
        scheduler.schedule(0.5, fired.append, "d")
        scheduler.run()
        assert fired == ["d", "c", "a"]

    @pytest.mark.parametrize("call", [
        lambda s: s.schedule(NAN, print),
        lambda s: s.schedule(INF, print),
        lambda s: s.schedule_at(NAN, print),
        lambda s: s.schedule_at(INF, print),
        lambda s: s.advance_to(NAN),
        lambda s: s.advance_to(INF),
        lambda s: s.run(until=NAN),
        lambda s: s.run(until=INF),
        lambda s: ServiceStation(s, "x").submit(NAN),
        lambda s: ServiceStation(s, "x").submit(INF),
        lambda s: ServiceStation(s, "x", capacity=1.5),
        lambda s: ServiceStation(s, "x", capacity=NAN),
        lambda s: ServiceStation(s, "x", capacity=INF),
    ], ids=["schedule-nan", "schedule-inf", "schedule_at-nan",
            "schedule_at-inf", "advance_to-nan", "advance_to-inf",
            "run-until-nan", "run-until-inf", "submit-nan", "submit-inf",
            "capacity-1.5", "capacity-nan", "capacity-inf"])
    def test_non_finite_and_fractional_values_refused(self, call):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        with pytest.raises(DataflowError):
            call(scheduler)
        # The refusal left the clock and the heap alone.
        assert (scheduler.now, scheduler.pending_events) == (0.0, 1)
        assert scheduler.run() == 1 and scheduler.now == 1.0


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
        contended.submit(int(1e6), on_complete=lambda _:
                         done.append(scheduler.now))
        contended.submit(int(1e6), on_complete=lambda _:
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
            ContendedLink(scheduler, link).submit(-1)

    @pytest.mark.parametrize("call", [
        lambda s, link: ContendedLink(s, link).submit(NAN),
        lambda s, link: ContendedLink(s, link).submit(INF),
    ], ids=["submit-nan", "submit-inf"])
    def test_non_finite_and_fractional_values_refused(self, call):
        scheduler = EventScheduler()
        link = NetworkLink("wan", bandwidth_mbps=8.0)
        with pytest.raises(NetworkError):
            call(scheduler, link)
        assert scheduler.pending_events == 0
        assert (link.transfer_count, link.total_bytes,
                link.total_seconds) == (0, 0, 0.0)

    def test_a_link_is_the_station_its_transfers_wait_at(self):
        scheduler = EventScheduler()
        contended = ContendedLink(scheduler, NetworkLink("wan", 8.0))
        assert isinstance(contended, ServiceStation)
        assert (contended.name, contended.capacity) == ("link:wan", 1)

    def test_a_failed_transfer_records_nothing(self):
        scheduler = EventScheduler()
        link = NetworkLink("wan", bandwidth_mbps=8.0)
        contended = ContendedLink(scheduler, link)
        failed = []
        contended.submit(int(1e6))
        scheduler.run(until=1.0)
        contended.submit(int(1e6),
                         on_fail=lambda _, reason: failed.append(reason))
        scheduler.run(until=1.5)
        assert contended.fail_all("cut") == 1
        scheduler.run()
        assert failed == ["cut"]
        # One transfer: the delivered one.
        assert (link.transfer_count, link.total_bytes,
                link.total_seconds) == (1, int(1e6), 1.0)
        assert contended.stats.busy_seconds == 1.0
