"""The stage-chain primitive and the contract its drivers share.

``StageChain`` is the one implementation of camera -> LAN -> edge -> WAN
-> cloud.  The first half of this file pins the primitive itself (stage
order, service-start instants, placement re-read at fire time, requeue
from every stage, hooks costing no events); the second half pins what no
per-driver test can: the batch fleet's event loop, its recurrence and the
streaming service, fed the same work, report *exactly* the same thing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CameraJob, FleetOrchestrator
from repro.cluster.topology import STAGES, StageChain, StageUnit
from repro.config import SystemConfig
from repro.dataflow.scheduler import EventScheduler
from repro.net.link import NetworkLink
from repro.service import FrameChunk, StreamingService

CONFIG = SystemConfig()


def make_job(camera="cam", edge_seconds=0.5, cloud_seconds=0.25,
             camera_edge_bytes=1_000_000, edge_cloud_bytes=100_000):
    return CameraJob(camera=camera, video=camera, num_frames=30,
                     frames_for_inference=3, edge_seconds=edge_seconds,
                     cloud_seconds=cloud_seconds,
                     camera_edge_bytes=camera_edge_bytes,
                     edge_cloud_bytes=edge_cloud_bytes)


def lan_seconds(job):
    return NetworkLink("lan", CONFIG.camera_edge_bandwidth_mbps,
                       CONFIG.camera_edge_latency_ms).transfer_seconds(
                           job.camera_edge_bytes)


def wan_seconds(job):
    return NetworkLink("wan", CONFIG.edge_cloud_bandwidth_mbps,
                       CONFIG.edge_cloud_latency_ms).transfer_seconds(
                           job.edge_cloud_bytes)


class Unit(StageUnit):
    """A unit whose placement is a plain, rewritable attribute."""

    __slots__ = ("edge_index", "finished_at")

    def __init__(self, work, edge_index=0):
        super().__init__(work)
        self.edge_index = edge_index
        self.finished_at = None

    @property
    def lan_key(self):
        return self.edge_index


class Recorder:
    """Chain hooks that log each unit's finish and failures."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.failures = []

    def on_finish(self, unit):
        unit.finished_at = self.scheduler.now

    def on_fail(self, unit, reason):
        self.failures.append((unit, unit.stage, reason))


def make_chain(num_edges=2, cloud_workers=4, **hooks):
    scheduler = EventScheduler()
    recorder = Recorder(scheduler)
    chain = StageChain(scheduler, CONFIG, range(num_edges),
                       cloud_workers=cloud_workers,
                       on_finish=recorder.on_finish, **hooks)
    return scheduler, chain, recorder


def stage_resource(chain, stage, position=0):
    return {"lan": chain.lan_links[position],
            "edge": chain.edge_stations[position],
            "wan": chain.wan_links[position],
            "cloud": chain.cloud_station}[stage]


class TestStageOrder:
    def test_unit_visits_the_four_stages_in_order(self):
        scheduler, chain, _ = make_chain()
        entries = []
        for stage in STAGES:
            # The chain looks its next stage up on itself at every hop.
            def enter(unit, stage=stage, enter=getattr(chain,
                                                      f"enter_{stage}")):
                entries.append((stage, scheduler.now))
                enter(unit)
            setattr(chain, f"enter_{stage}", enter)
        job = make_job()
        unit = Unit(job)
        chain.submit_at(1.0, unit)
        scheduler.run()
        assert [stage for stage, _ in entries] == list(STAGES)
        # Uncontended, each stage starts the instant the previous ends.
        durations = [lan_seconds(job), job.edge_seconds, wan_seconds(job),
                     job.cloud_seconds]
        instant = 1.0
        for (_, entered), duration in zip(entries, durations):
            assert entered == instant
            instant += duration
        assert unit.finished_at == instant
        assert unit.stage == "cloud"

    def test_stage_start_is_the_service_start_not_the_entry(self):
        """Two units contending for one edge: the second's start instants
        are when each resource actually frees up, not when it queued."""
        scheduler, chain, _ = make_chain(num_edges=1)
        starts = {}
        for stage in STAGES:
            resource = stage_resource(chain, stage)

            # Each job carries its start instant to its completion.
            def finish(job, stage=stage, finish=resource._finish):
                starts.setdefault(job.payload, []).append(
                    (stage, job.started_at))
                finish(job)
            resource._finish = finish
        job = make_job()
        first, second = Unit(job), Unit(job)
        chain.submit_at(0.0, first)
        chain.submit_at(0.0, second)
        scheduler.run()
        lan, edge, wan = lan_seconds(job), job.edge_seconds, wan_seconds(job)
        assert edge > lan and edge > wan  # the edge is the bottleneck
        assert dict(starts[first]) == {
            "lan": 0.0, "edge": lan, "wan": lan + edge,
            "cloud": lan + edge + wan}
        assert dict(starts[second]) == {
            "lan": lan,                      # behind the first transfer
            "edge": lan + edge,              # behind the first compute
            "wan": lan + edge + edge,
            "cloud": lan + edge + edge + wan}
        station = chain.edge_stations[0].stats
        assert station.max_queue_depth == 1 and station.completed == 2

    def test_edge_index_is_reread_at_every_stage_entry(self):
        scheduler, chain, _ = make_chain(num_edges=2)
        unit = Unit(make_job(), edge_index=0)
        chain.submit_at(0.0, unit)
        # Mid edge-compute on edge 0, the unit's placement is rewritten:
        scheduler.run(until=lan_seconds(unit.work) + 0.1)
        assert unit.stage == "edge"
        unit.edge_index = 1
        scheduler.run()
        # ... the compute it already occupied finishes where it started,
        # the next stage lands on the new edge.
        assert chain.edge_stations[0].stats.completed == 1
        assert chain.wan_links[0].stats.arrivals == 0
        assert chain.wan_links[1].stats.completed == 1
        assert unit.finished_at is not None


class TestReenter:
    @pytest.mark.parametrize("stage", STAGES)
    def test_failed_stage_requeues_on_the_units_current_edge(self, stage):
        scheduler, chain, recorder = make_chain(num_edges=2)
        chain.on_fail = recorder.on_fail
        unit = Unit(make_job(), edge_index=0)
        resource = stage_resource(chain, stage)
        resource.pause()
        chain.submit_at(0.0, unit)
        scheduler.run()
        assert unit.stage == stage and unit.finished_at is None
        assert resource.fail_all("test") == 1
        assert recorder.failures == [(unit, stage, "test")]
        # Requeue after a failover: the entry lands on the new edge (the
        # cloud is shared, so only there the same resource is re-entered).
        unit.edge_index = 1
        chain.reenter(unit)
        resource.resume()
        scheduler.run()
        assert unit.finished_at is not None
        retried = stage_resource(chain, stage, position=1)
        assert retried.stats.completed == 1
        assert resource.stats.arrivals == (2 if stage == "cloud" else 1)


class TestHooksAreFree:
    def test_unset_hooks_add_no_events(self):
        def run(**hooks):
            scheduler, chain, recorder = make_chain(num_edges=2)
            for name, enabled in hooks.items():
                if enabled:
                    setattr(chain, name, getattr(recorder, name))
            units = [Unit(make_job(edge_seconds=0.3 + 0.1 * index),
                          edge_index=index % 2) for index in range(6)]
            for index, unit in enumerate(units):
                chain.submit_at(0.1 * index, unit)
            scheduler.run()
            return scheduler.events_processed, [u.finished_at for u in units]

        bare_events, bare_ends = run()
        hooked_events, hooked_ends = run(on_fail=True)
        # One start event plus one completion per stage, hooks or not.
        assert bare_events == hooked_events == 6 * (1 + len(STAGES))
        assert bare_ends == hooked_ends

    def test_service_resources_are_the_chains_own_containers(self):
        service = StreamingService(num_edge_servers=2)
        assert service.edge_stations is service.chain.edge_stations
        assert service.wan_links is service.chain.wan_links
        assert service.lan_links is service.chain.lan_links
        assert service.cloud_station is service.chain.cloud_station


class TestCrossDriverParity:
    """N cameras on N edges, same costs: three computations, one report."""

    @settings(max_examples=12, deadline=None)
    @given(costs=st.lists(
               st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 2.0),
                         st.integers(0, 5_000_000), st.integers(0, 500_000)),
               min_size=1, max_size=5),
           edge_workers=st.integers(1, 3), cloud_workers=st.integers(1, 4))
    def test_chain_recurrence_and_service_reports_are_identical(
            self, costs, edge_workers, cloud_workers):
        jobs = [make_job(f"cam-{index}", *cost)
                for index, cost in enumerate(costs)]
        fleet = FleetOrchestrator(
            jobs, num_edge_servers=len(jobs), edge_workers=edge_workers,
            cloud_workers=cloud_workers)

        service = StreamingService(
            num_edge_servers=len(jobs), edge_workers=edge_workers,
            cloud_workers=cloud_workers)
        for index, job in enumerate(jobs):
            service.open_session(job.camera, edge_index=index)
            chunk = FrameChunk(
                num_frames=job.num_frames,
                frames_for_inference=job.frames_for_inference,
                edge_seconds=job.edge_seconds,
                cloud_seconds=job.cloud_seconds,
                camera_edge_bytes=job.camera_edge_bytes,
                edge_cloud_bytes=job.edge_cloud_bytes)
            # Pushed as control events, like the batch fleet's ingests.
            service.at(0.0, lambda job=job, chunk=chunk:
                       service.push_frames(job.camera, chunk))
        service.drain()

        chain = fleet._run_chain()
        assert chain.parity_mismatches(fleet.run(),
                                       tolerance=0.0) == []
        assert chain.parity_mismatches(service.fleet_report(),
                                       tolerance=0.0) == []
