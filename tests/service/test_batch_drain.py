"""The service's two drivers of one stage chain: the batch and the loop.

A ``StreamingService.run`` on a :class:`VirtualClock` whose pending events
are all :class:`ChunkFeeder` pushes, into an idle chain, computes the run
through ``cluster/recurrence.py`` and commits the result into the live
objects; anything else runs the event loop.  The contract is bit identity
at tolerance 0.0: the report, ``status()``, the event count, the clock,
every link, station, session and feeder the two paths leave behind.

The loop is forced here with a no-op ``on_stage_start`` hook on the chain:
it schedules nothing, so even the event count and the clock must agree.
Whether the loop ran is read off ``StageChain.enter_lan``, the one door
every chunk of the loop goes through and the batch never uses.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager, suppress
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapt import AdaptiveConfig
from repro.cluster.topology import StageChain
from repro.config import SystemConfig
from repro.errors import AdmissionError
from repro.faults import (EdgeCrash, FaultPlan, ResilienceConfig,
                          RetryPolicy, StreamStall, WanDegradation)
from repro.service import (ChunkFeeder, FrameChunk, RealTimeClock,
                           SessionState, StreamingService, TenantPolicy)

ZERO_LATENCY = SystemConfig(camera_edge_latency_ms=0.0,
                            edge_cloud_latency_ms=0.0)
#: 30 Mbps WAN: this many bytes take exactly one second (before latency).
SECOND_OF_WAN = int(30e6 / 8)
#: A tenant whose sessions ingest over a slower, farther camera uplink.
SLOW_LAN = SystemConfig(camera_edge_bandwidth_mbps=25.0,
                        camera_edge_latency_ms=2.0)

TIE_PRONE_SECONDS = (0.0, 0.25, 0.5, 1.0)
TIE_PRONE_BYTES = (0, SECOND_OF_WAN // 4, SECOND_OF_WAN // 2, SECOND_OF_WAN)


def chunk(edge_seconds=0.3, cloud_seconds=0.2, lan_bytes=250_000,
          wan_bytes=SECOND_OF_WAN // 8):
    return FrameChunk(num_frames=30, frames_for_inference=3,
                      edge_seconds=edge_seconds, cloud_seconds=cloud_seconds,
                      camera_edge_bytes=lan_bytes, edge_cloud_bytes=wan_bytes)


def build(plans, *, num_edges=2, edge_workers=1, cloud_workers=None,
          config=None, max_pending=64, wan_bound=None, **kwargs):
    """A service with one fed session per ``(tenant, edge, offset, period,
    chunks)`` plan."""
    service = StreamingService(
        config=config, num_edge_servers=num_edges, edge_workers=edge_workers,
        cloud_workers=cloud_workers, max_sessions=64,
        max_wan_queue_depth=wan_bound,
        tenants=(TenantPolicy("default", max_sessions=64,
                              max_pending_chunks=max_pending),
                 TenantPolicy("slow", max_sessions=64,
                              max_pending_chunks=max_pending,
                              config=SLOW_LAN)), **kwargs)
    feed(service, plans)
    return service


def feed(service, plans, first=0):
    for index, (tenant, edge, offset, period, chunks) in enumerate(
            plans, start=first):
        camera = f"cam-{index:02d}"
        service.open_session(camera, tenant=tenant,
                             edge_index=edge % service.num_edge_servers)
        ChunkFeeder(service, camera, chunks,
                    period_seconds=period).start(at=offset)


def force_loop(service):
    """Install a hook that schedules nothing: the run is the loop's."""
    service.chain.on_stage_start = lambda unit: None


def plain_plans(sessions=4, chunks=6):
    return [("default", index, 0.1 * index, 0.5,
             [chunk(edge_seconds=0.2 + 0.05 * index)] * chunks)
            for index in range(sessions)]


@contextmanager
def counting_loop_entries():
    """Counts the chunks that enter the chain through the event loop."""
    entered = []
    enter_lan = StageChain.enter_lan

    def counting(chain, unit):
        entered.append(unit)
        enter_lan(chain, unit)

    StageChain.enter_lan = counting
    try:
        yield entered
    finally:
        StageChain.enter_lan = enter_lan


@pytest.fixture
def loop_entries():
    with counting_loop_entries() as entered:
        yield entered


def hexed(value):
    return value.hex() if isinstance(value, float) else value


def observed(service, fired):
    """Everything a run leaves behind, spelled so equal means bit-equal."""
    status = replace(service.status(), wall_run_seconds=0.0)
    links = sorted(service.lan_links.items()) + list(
        enumerate(service.wan_links))
    return {
        "fired": fired,
        "now": service.scheduler.now.hex(),
        "events": service.scheduler.events_processed,
        "status": status.to_json(indent=1),
        "report": {key: repr(value) for key, value
                   in service.fleet_report().as_dict().items()},
        "links": [(key, link.link.transfer_count, link.link.total_bytes,
                   hexed(link.link.total_seconds), vars(link.stats))
                  for key, link in links],
        "stations": [vars(station.stats) for station
                     in service.edge_stations + [service.cloud_station]],
        "sessions": [{name: ([hexed(v) for v in value]
                             if isinstance(value, array) else hexed(value))
                      for name, value in vars(session).items()}
                     for session in service.ingest.sessions.values()],
        "feeders": [(feeder.next_index, feeder.retries, feeder.gave_up,
                     feeder.halted, dict(feeder.attempt_histogram))
                    for feeder in service.feeders],
        "close_reasons": dict(service.ingest.close_reasons),
    }


def both_paths(make, loop_entries):
    """``(batch, loop)`` observations of the service ``make()`` builds,
    their reports, and whether the batch run used the loop."""
    batch = make()
    fired = batch.drain()
    batch_used_loop = bool(loop_entries)
    loop = make()
    force_loop(loop)
    loop_fired = loop.drain()
    assert loop_entries, "the forced run never entered the loop"
    return (observed(batch, fired), observed(loop, loop_fired),
            batch.fleet_report(), loop.fleet_report(), batch_used_loop)


plan_strategy = st.tuples(
    st.sampled_from(("default", "default", "slow")),
    st.integers(0, 5),
    st.sampled_from((0.0, 0.0, 0.5, 1.0, 0.3)),
    st.sampled_from((0.5, 1.0, 2.0, 0.75)),
    st.lists(st.tuples(st.sampled_from(TIE_PRONE_SECONDS),
                       st.sampled_from(TIE_PRONE_SECONDS),
                       st.sampled_from(TIE_PRONE_BYTES),
                       st.sampled_from(TIE_PRONE_BYTES)),
             min_size=1, max_size=6)
    .map(lambda costs: [chunk(*cost) for cost in costs]))


class TestBatchEqualsLoop:
    @settings(max_examples=60, deadline=None)
    @given(plans=st.lists(plan_strategy, min_size=1, max_size=7),
           num_edges=st.integers(1, 3), edge_workers=st.integers(1, 3),
           cloud_workers=st.integers(1, 3),
           config=st.sampled_from((SystemConfig(), ZERO_LATENCY)),
           identical=st.booleans())
    def test_tie_heavy_feeds_are_bit_identical(
            self, plans, num_edges, edge_workers, cloud_workers, config,
            identical):
        if identical:
            # Equal offsets, equal plans: every delivery ties.
            plans = [("default", index, 0.0, 1.0, plans[0][4])
                     for index in range(len(plans))]
        with counting_loop_entries() as entered:
            batch, loop, batch_report, loop_report, used_loop = both_paths(
                lambda: build(plans, num_edges=num_edges,
                              edge_workers=edge_workers,
                              cloud_workers=cloud_workers, config=config),
                entered)
        assert not used_loop
        assert batch_report.parity_mismatches(loop_report,
                                              tolerance=0.0) == []
        assert batch == loop

    @settings(max_examples=40, deadline=None)
    @given(plans=st.lists(plan_strategy, min_size=1, max_size=6),
           max_pending=st.integers(1, 3),
           wan_bound=st.sampled_from((None, 1, 2)),
           edge_workers=st.integers(1, 2))
    def test_bounds_are_checked_at_every_push(self, plans, max_pending,
                                              wan_bound, edge_workers):
        """Tight bounds: the batch commits only when no push would have
        been refused, and either way the run is the loop's, bit for bit."""
        with counting_loop_entries() as entered:
            batch, loop, _, _, used_loop = both_paths(
                lambda: build(plans, num_edges=1, edge_workers=edge_workers,
                              max_pending=max_pending, wan_bound=wan_bound),
                entered)
        assert batch == loop
        refused = sum(retries for _, retries, *_ in loop["feeders"])
        assert used_loop == (refused > 0)

    def test_a_second_drain_folds_into_the_first(self, loop_entries):
        """Stations and links carry the first drain's statistics into the
        second batch, which must fold into them as the loop does."""
        def make():
            service = build(plain_plans(3, 5), edge_workers=2)
            service.drain()
            feed(service, [("slow", 1, service.scheduler.now + 0.25, 0.5,
                            [chunk(0.4, 0.1)] * 4)], first=3)
            return service

        batch, loop, *_ = both_paths(make, loop_entries)
        assert batch == loop

    def test_a_horizon_past_the_end_is_a_batch(self, loop_entries):
        plans = plain_plans()
        batch = build(plans)
        fired = batch.run(until=1000.0)
        assert not loop_entries
        loop = build(plans)
        force_loop(loop)
        assert observed(batch, fired) == observed(loop,
                                                  loop.run(until=1000.0))
        assert batch.scheduler.now == 1000.0


class TestFallbacks:
    """Each reason the batch declines runs the loop, from untouched state."""

    def test_a_feeder_fed_virtual_run_is_a_batch(self, loop_entries):
        service = build(plain_plans())
        assert service.drain() == 5 * 24
        assert not loop_entries

    def test_real_time_clock(self, loop_entries):
        service = build(plain_plans(2, 2), clock=RealTimeClock(speedup=1e6))
        service.drain()
        assert len(loop_entries) == 4

    def test_a_horizon_that_cuts_work(self, loop_entries):
        service = build(plain_plans())
        service.run(until=0.5)
        assert loop_entries
        assert service.scheduler.pending_events

    def test_fault_plan(self, loop_entries):
        build(plain_plans(), faults=FaultPlan()).drain()
        assert len(loop_entries) == 24

    def test_adaptive_controller(self, loop_entries):
        build(plain_plans(), adaptive=AdaptiveConfig()).drain()
        assert len(loop_entries) == 24

    def test_chain_hook(self, loop_entries):
        service = build(plain_plans())
        force_loop(service)
        service.drain()
        assert len(loop_entries) == 24

    def test_non_feeder_control_event(self, loop_entries):
        """A no-op control event: the loop runs, fires it and leaves the
        rest exactly as the batch does."""
        batch = build(plain_plans())
        fired = batch.drain()
        assert not loop_entries
        service = build(plain_plans())
        service.at(0.0, lambda: None)
        assert service.drain() == fired + 1
        assert len(loop_entries) == 24
        expected, actual = observed(batch, fired), observed(service, fired)
        for key in ("events", "status", "report"):
            expected.pop(key), actual.pop(key)
        assert actual == expected

    def test_a_push_the_pending_bound_refuses(self, loop_entries):
        """One session, a bound of one chunk in flight and chunks slower
        than the push period: the second push would bounce."""
        service = build([("default", 0, 0.0, 0.25, [chunk(1.0, 0.5)] * 3)],
                        max_pending=1)
        service.drain()
        assert loop_entries
        assert service.feeders[0].retries > 0

    def test_a_push_the_wan_bound_refuses(self, loop_entries):
        plans = [("default", 0, 0.0, 0.1,
                  [chunk(0.0, 0.0, 0, 2 * SECOND_OF_WAN)] * 4),
                 ("default", 0, 0.0, 0.1,
                  [chunk(0.0, 0.0, 0, 2 * SECOND_OF_WAN)] * 4)]
        service = build(plans, num_edges=1, wan_bound=1)
        service.drain()
        assert loop_entries
        assert sum(feeder.retries for feeder in service.feeders) > 0

    @pytest.mark.parametrize("wan_bound", [2, 3])
    def test_a_push_that_finds_the_wan_queue_at_its_bound(self, wan_bound,
                                                          loop_entries):
        """One-second transfers pushed every quarter second on one uplink:
        at 0.75 s one is in service and two wait.  A bound of two is met
        exactly, so the fourth push is refused, by the batch's check and by
        the loop's; a bound of three admits every push, as a batch."""
        def make():
            return build([("default", 0, 0.0, 0.25,
                           [chunk(0.0, 0.0, 0, SECOND_OF_WAN)] * 4)],
                         num_edges=1, wan_bound=wan_bound, config=ZERO_LATENCY)

        batch, loop, _, _, used_loop = both_paths(make, loop_entries)
        assert batch == loop
        refused = wan_bound == 2
        assert used_loop == refused
        assert (loop["feeders"][0][1] > 0) == refused

    def test_a_feeder_retrying_a_refused_push(self, loop_entries):
        """Cut mid-retry, the rest of the run stays the loop's."""
        service = build([("default", 0, 0.0, 0.25, [chunk(1.0, 0.5)] * 3)],
                        max_pending=1)
        service.run(until=0.3)
        assert service.feeders[0].retries
        entered = len(loop_entries)
        service.drain()
        assert len(loop_entries) > entered

    def test_a_closed_session_under_its_feeder(self, loop_entries):
        service = build(plain_plans(2, 3))
        service.close_session("cam-00")
        service.drain()
        assert len(loop_entries) == 3
        assert service.feeders[0].halted


def active_counts(service):
    """The ingest's kept counts, then the same counts by a scan."""
    ingest = service.ingest
    live = [session for session in ingest.sessions.values()
            if session.state is not SessionState.CLOSED]
    kept = (ingest.active_sessions,
            {name: ingest.active_sessions_of(name) for name in ingest.tenants})
    scanned = (len(live),
               {name: sum(session.tenant == name for session in live)
                for name in ingest.tenants})
    return kept, scanned


def counted_service():
    """Quotas tight enough that admissions are refused and shed."""
    return StreamingService(
        num_edge_servers=2, max_sessions=5,
        tenants=(TenantPolicy("default", max_sessions=3),
                 TenantPolicy("gold", max_sessions=2)),
        degraded_tenant=TenantPolicy("shed", max_sessions=1))


lifecycle_operations = st.lists(st.one_of(
    st.tuples(st.just("open"), st.integers(0, 3),
              st.sampled_from(("default", "gold"))),
    st.tuples(st.just("feed"), st.integers(0, 3), st.integers(1, 3),
              st.booleans()),
    st.tuples(st.just("close"), st.integers(0, 3)),
    st.tuples(st.just("drain"))), max_size=24)


class TestActiveCounts:
    """The ingest keeps its active-session counts at admission and at the
    two transitions to ``CLOSED`` (the loop's finalise, the batch's
    commit); whatever happens, they equal a scan of the sessions."""

    @settings(max_examples=80, deadline=None)
    @given(operations=lifecycle_operations, loop=st.booleans())
    def test_counts_equal_a_scan(self, operations, loop):
        service = counted_service()
        if loop:
            force_loop(service)
        for kind, *arguments in [*operations, ("drain",)]:
            camera = f"cam-{arguments[0]}" if arguments else None
            session = service.ingest.sessions.get(camera)
            if kind == "drain":
                service.drain()
            elif kind == "open":
                with suppress(AdmissionError):
                    service.open_session(camera, tenant=arguments[1])
            elif session is not None and kind == "close":
                service.close_session(camera)
            elif session is not None and session.is_open:
                ChunkFeeder(service, camera, [chunk()] * arguments[1],
                            period_seconds=0.5,
                            close_when_done=arguments[2]).start()
            kept, scanned = active_counts(service)
            assert kept == scanned

    def test_the_batch_closes_what_it_feeds(self, loop_entries):
        """Shed, refused and fed sessions, drained as one batch."""
        service = counted_service()
        for index, tenant in enumerate(("gold", "gold", "gold", "gold")):
            with suppress(AdmissionError):
                service.open_session(f"cam-{index}", tenant=tenant)
        assert service.ingest.sessions_degraded == 1
        assert service.ingest.sessions_rejected == 1
        for camera in service.ingest.sessions:
            ChunkFeeder(service, camera, [chunk()] * 3,
                        period_seconds=0.5).start()
        assert active_counts(service)[0] == (3, {"default": 0, "gold": 2,
                                                 "shed": 1})
        service.drain()
        assert not loop_entries
        kept, scanned = active_counts(service)
        assert kept == scanned == (0, {"default": 0, "gold": 0, "shed": 0})
        # The quotas are free again.
        service.open_session("cam-0", tenant="gold")
        service.open_session("cam-1", tenant="gold")


class TestPowerOfTwoTimeScaling:
    """Relation 13(a) on the service: scale every offset, period, chunk
    second and latency by 2**k and both bandwidths by 2**-k, and every
    instant, latency, busy second, makespan and percentile scales by
    exactly 2**k, on both paths.  With a fault plan, its windows, the
    feeders' retry backoff and the breaker and watchdog seconds scale
    too, and so do the recovery trace's instants."""

    @staticmethod
    def scaled(k, *, binding, faulted=False):
        scale = 2.0 ** k
        config = SystemConfig(
            camera_edge_bandwidth_mbps=100.0 / scale,
            edge_cloud_bandwidth_mbps=30.0 / scale,
            camera_edge_latency_ms=5.0 * scale,
            edge_cloud_latency_ms=40.0 * scale)
        # Pushes every 0.5 s, two sessions an edge.  The binding plan's
        # first session needs 0.875 s of edge time a chunk, so its third
        # push finds two chunks in flight and bounces.
        edge_seconds = (0.875 if binding else 0.1875, 0.125, 0.0625, 0.1875)
        plans = [("default", index % 2, scale * 0.25 * index, scale * 0.5,
                  [FrameChunk(num_frames=30, frames_for_inference=3,
                              edge_seconds=scale * edge_seconds[index],
                              cloud_seconds=scale * 0.0625,
                              camera_edge_bytes=125_000 + 1013 * index,
                              edge_cloud_bytes=SECOND_OF_WAN // 16)] * 5)
                 for index in range(4)]
        if not faulted:
            return build(plans, config=config, max_pending=2,
                         edge_workers=1, cloud_workers=2)
        # A seeded crash and stall, a window at 3/8 of the WAN bandwidth,
        # and feeders that back off exponentially with seeded jitter.
        cameras = [f"cam-{index:02d}" for index in range(len(plans))]
        specs = FaultPlan.seeded(
            11, num_edge_servers=2, cameras=cameras,
            horizon_seconds=scale * 3.0, num_edge_crashes=1,
            num_wan_partitions=0).specs + (
            EdgeCrash(edge_index=0, at_seconds=scale * 0.75,
                      restart_after_seconds=scale * 0.5),
            WanDegradation(edge_index=1, at_seconds=scale * 0.25,
                           duration_seconds=scale * 1.5,
                           bandwidth_factor=0.375))
        service = build([], config=config, max_pending=2, edge_workers=1,
                        cloud_workers=2, faults=FaultPlan(specs=specs),
                        resilience=ResilienceConfig(
                            breaker_cooldown_seconds=scale * 0.375,
                            stall_timeout_seconds=scale * 2.5,
                            watchdog_period_seconds=scale * 0.5))
        retry = RetryPolicy(max_attempts=16,
                            base_delay_seconds=scale * 0.0625,
                            max_delay_seconds=scale * 0.5,
                            jitter_fraction=0.25, seed=5)
        for camera, (tenant, edge, offset, period, chunks) in zip(
                cameras, plans):
            service.open_session(camera, tenant=tenant, edge_index=edge)
            ChunkFeeder(service, camera, chunks, period_seconds=period,
                        retry_policy=retry).start(at=offset)
        return service

    @staticmethod
    def times(service):
        sessions = list(service.ingest.sessions.values())
        report = service.fleet_report()
        return ([value for session in sessions
                 for value in (session.opened_at, session.first_arrival,
                               session.last_push, session.last_completion,
                               session.closed_at,
                               *session.chunk_latencies)]
                + [station.stats.busy_seconds for station
                   in service.edge_stations + [service.cloud_station]]
                + [value for link
                   in list(service.lan_links.values()) + service.wan_links
                   for value in (link.stats.busy_seconds,
                                 link.link.total_seconds)]
                + [report.makespan_seconds, service.scheduler.now,
                   *report.latency_percentiles.values()]
                + [event.time for event in service.recovery_trace or ()])

    @pytest.mark.parametrize("binding", [False, True],
                             ids=["batch", "loop"])
    @pytest.mark.parametrize("k", [-40, -23, -1, 1, 17, 40])
    def test_every_time_scales_exactly(self, k, binding, loop_entries):
        base = self.scaled(0, binding=binding)
        base.drain()
        # The binding plan bounces a push and runs the loop; the other is
        # a batch at every scale.
        assert bool(loop_entries) == binding
        scaled = self.scaled(k, binding=binding)
        scaled.drain()
        assert bool(loop_entries) == binding
        assert [value * 2.0 ** k for value in self.times(base)] == \
            self.times(scaled)
        assert ([feeder.retries for feeder in scaled.feeders]
                == [feeder.retries for feeder in base.feeders])
        assert (scaled.scheduler.events_processed
                == base.scheduler.events_processed)

    @pytest.mark.parametrize("k", [-40, -8, -1, 1, 8, 40])
    def test_faulted_times_scale_exactly(self, k, loop_entries):
        base = self.scaled(0, binding=False, faulted=True)
        base.drain()
        assert loop_entries, "a fault plan runs the loop"
        scaled = self.scaled(k, binding=False, faulted=True)
        scaled.drain()
        assert [value * 2.0 ** k for value in self.times(base)] == \
            self.times(scaled)
        kinds = [event.kind for event in base.recovery_trace]
        assert [event.kind for event in scaled.recovery_trace] == kinds
        # Every fault fired and something was recovered.
        assert {"edge-crash", "edge-restart", "wan-degraded",
                "wan-restore", "stream-stall", "stream-resume",
                "session-failover", "chunk-requeued"} <= set(kinds)
        assert (base.fault_stats().as_dict()
                == scaled.fault_stats().as_dict())
        assert ([feeder.retries for feeder in scaled.feeders]
                == [feeder.retries for feeder in base.feeders])
        assert (scaled.scheduler.events_processed
                == base.scheduler.events_processed)


class TestLateFaultsAreNoFaults:
    """Relation 13(b) on the service: a plan whose every window opens after
    the fault-free makespan runs the loop with the fault driver on, and
    leaves everything the fault-free batch leaves, fault counters and the
    event count aside.  The fault-free run goes to the faulted run's last
    instant, so both clocks stop together."""

    PLANS = plain_plans(4, 5)

    @staticmethod
    def specs(after):
        return (EdgeCrash(edge_index=1, at_seconds=after + 1.0,
                          restart_after_seconds=2.0),
                WanDegradation(edge_index=0, at_seconds=after + 1.5,
                               duration_seconds=1.0),
                WanDegradation(edge_index=1, at_seconds=after + 2.5,
                               duration_seconds=0.5, bandwidth_factor=0.5),
                StreamStall(camera="cam-02", at_seconds=after + 3.0,
                            duration_seconds=0.75),
                EdgeCrash(edge_index=0, at_seconds=after + 4.0))

    def test_late_windows_change_nothing(self, loop_entries):
        clean = build(self.PLANS)
        clean.drain()
        makespan = clean.fleet_report().makespan_seconds
        faulted = build(self.PLANS,
                        faults=FaultPlan(specs=self.specs(makespan)))
        faulted_fired = faulted.drain()
        assert loop_entries
        assert faulted.fault_stats() is not None  # the windows did fire
        entered = len(loop_entries)
        reference = build(self.PLANS)
        fired = reference.run(until=faulted.scheduler.now)
        assert len(loop_entries) == entered, "the fault-free run is a batch"

        assert replace(faulted.fleet_report(), faults=None,
                       events_processed=fired).parity_mismatches(
            reference.fleet_report(), tolerance=0.0) == []
        # Fault counters, breakers and their history are the plan's own.
        exempt = dict(wall_run_seconds=0.0, events_processed=fired,
                      fault_counters={}, breaker_states={},
                      health_history=())
        assert (replace(faulted.status(), **exempt)
                == replace(reference.status(), **exempt))
        expected = observed(reference, fired)
        actual = observed(faulted, faulted_fired)
        for view in (expected, actual):
            for key in ("fired", "events", "status", "report"):
                view.pop(key)
        assert actual == expected

    def test_spec_order_within_a_plan_does_not_matter(self, loop_entries):
        clean = build(self.PLANS)
        clean.drain()
        makespan = clean.fleet_report().makespan_seconds
        runs = []
        for order in ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 0, 4, 1, 3)):
            specs = self.specs(makespan)
            service = build(self.PLANS, faults=FaultPlan(
                specs=tuple(specs[index] for index in order)))
            fired = service.drain()
            runs.append((observed(service, fired),
                         service.recovery_trace.lines()))
        assert runs[0] == runs[1] == runs[2]

    def test_a_unit_slowdown_window_is_a_no_op(self, loop_entries):
        """``WanDegradation`` refuses ``bandwidth_factor=1.0``; the
        slowdown its window would set, ``1.0 / 1.0``, applied mid-run to
        every uplink as a control event, moves nothing but the count."""
        batch = build(self.PLANS)
        fired = batch.drain()
        service = build(self.PLANS)
        for link in service.wan_links:
            service.at(0.7, link.set_slowdown, 1.0 / 1.0)
        assert service.drain() == fired + len(service.wan_links)
        assert loop_entries
        expected, actual = observed(batch, fired), observed(service, fired)
        for key in ("events", "status", "report"):
            expected.pop(key), actual.pop(key)
        assert actual == expected
