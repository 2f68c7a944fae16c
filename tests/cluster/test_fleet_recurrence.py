"""The fault-free fleet's recurrence against the event loop it replaces.

``FleetOrchestrator.run()`` computes a fault-free fleet as start/end
recurrences (``repro.cluster.recurrence``); ``_run_chain()`` is the event
loop over ``StageChain`` that defines it, and the one oracle of the
recurrence and of its station routine ``_station``.  The contract is bit
identity: no parity mismatch at tolerance 0.0, and every outcome time
(all five stage instants of the record) and tier statistic equal down to
``float.hex()``.  The draws are tie-prone on
purpose — a handful of stage seconds, zero-byte transfers, zero link
latency, equal offsets — because simultaneous events are where a
recurrence can order things differently from the heap.  Fleets shaped at
the seams of the stations' columns (``TestStationSeams``) reach the
busy-period merges and heap segments that small tie-prone fleets rarely
do.
"""

import math
import random
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fleet import CameraJob, FleetOrchestrator
from repro.cluster.recurrence import (_WAN, _WINDOW, EVENTS_PER_JOB,
                                      _fires_before, _firing_order, _station)
from repro.config import SystemConfig
from repro.dataflow.scheduler import EventScheduler, StationStats

ZERO_LATENCY = SystemConfig(camera_edge_latency_ms=0.0,
                            edge_cloud_latency_ms=0.0)
#: 30 Mbps WAN, zero latency: this many bytes take exactly one second.
SECOND_OF_WAN = int(30e6 / 8)

TIE_PRONE_SECONDS = (0.0, 0.5, 1.0, 1.0 + 2 ** -52)
TIE_PRONE_BYTES = (0, SECOND_OF_WAN // 2, SECOND_OF_WAN, 2 * SECOND_OF_WAN)
POLICIES = ("round-robin", "least-loaded", "bandwidth-aware")


class PinnedOffsets(FleetOrchestrator):
    """A fleet whose ingest instants, and optionally each job's edge, are
    given instead of drawn."""

    def __init__(self, jobs, offsets, placement=None, **kwargs):
        super().__init__(jobs, **kwargs)
        self.offsets = list(offsets)
        self.placement = placement

    def _arrival_offsets(self):
        return list(self.offsets)

    def _placements(self):
        if self.placement is None:
            return super()._placements()
        return np.array(self.placement, dtype=np.int64)


def make_job(camera, edge_seconds=0.5, cloud_seconds=0.5,
             camera_edge_bytes=0, edge_cloud_bytes=SECOND_OF_WAN):
    return CameraJob(camera=camera, video=camera, num_frames=10,
                     frames_for_inference=1, edge_seconds=edge_seconds,
                     cloud_seconds=cloud_seconds,
                     camera_edge_bytes=camera_edge_bytes,
                     edge_cloud_bytes=edge_cloud_bytes)


def make_fleet_jobs(count, heterogeneous=True):
    """A small fleet of jobs (optionally all identical to force float ties)."""
    jobs = []
    for index in range(count):
        spread = (index % 5) if heterogeneous else 0
        jobs.append(CameraJob(
            camera=f"cam-{index:02d}", video=f"video-{spread}",
            num_frames=300 + spread * 30, frames_for_inference=12 + spread,
            edge_seconds=0.7 + spread * 0.13, cloud_seconds=0.4 + spread * 0.05,
            camera_edge_bytes=800_000 + spread * 1013,
            edge_cloud_bytes=250_000 + spread * 577))
    return jobs


def exact_view(report):
    """Every number of the report, spelled so equal means bit-equal."""
    tiers = report.edge_tiers + report.wan_tiers + [report.cloud_tier]
    return {
        "flat": {key: repr(value) for key, value in report.as_dict().items()},
        "outcomes": [(outcome.job.camera, outcome.edge_index,
                      outcome.start_seconds.hex(), outcome.end_seconds.hex())
                     for outcome in report.outcomes],
        "instants": [value.hex()
                     for value in report.outcomes.instants.ravel().tolist()],
        "tiers": [(tier.busy_seconds.hex(), tier.utilisation.hex(),
                   tier.max_queue_depth, tier.completed) for tier in tiers],
    }


def assert_recurrence_is_chain(orchestrator):
    chain = orchestrator._run_chain()
    recurrence = orchestrator.run()
    assert chain.parity_mismatches(recurrence, tolerance=0.0) == []
    assert exact_view(recurrence) == exact_view(chain)
    return recurrence


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(costs=st.lists(st.tuples(st.sampled_from(TIE_PRONE_SECONDS),
                                    st.sampled_from(TIE_PRONE_SECONDS),
                                    st.sampled_from(TIE_PRONE_BYTES),
                                    st.sampled_from(TIE_PRONE_BYTES)),
                          min_size=1, max_size=16),
           num_edges=st.integers(1, 4), edge_workers=st.integers(1, 3),
           cloud_workers=st.integers(1, 4), policy=st.sampled_from(POLICIES),
           zero_latency=st.booleans(),
           arrivals=st.sampled_from(("together", "jittered", "tie-prone")),
           data=st.data())
    def test_tie_prone_fleets_are_bit_identical(
            self, costs, num_edges, edge_workers, cloud_workers, policy,
            zero_latency, arrivals, data):
        jobs = [make_job(f"cam-{index}", *cost)
                for index, cost in enumerate(costs)]
        kwargs = dict(num_edge_servers=num_edges, edge_workers=edge_workers,
                      cloud_workers=cloud_workers, policy=policy,
                      config=ZERO_LATENCY if zero_latency else SystemConfig())
        if arrivals == "tie-prone":
            offsets = data.draw(st.lists(
                st.sampled_from((0.0, 0.5, 0.75, 1.0, 2.0)),
                min_size=len(jobs), max_size=len(jobs)))
            # Any placement, not only a policy's: empty and crowded edges.
            placement = data.draw(st.none() | st.lists(
                st.integers(0, num_edges - 1), min_size=len(jobs),
                max_size=len(jobs)))
            orchestrator = PinnedOffsets(jobs, offsets, placement, **kwargs)
        else:
            orchestrator = FleetOrchestrator(
                jobs, arrival_jitter_seconds=(
                    2.0 if arrivals == "jittered" else 0.0),
                seed=data.draw(st.integers(0, 1000)), **kwargs)
        assert_recurrence_is_chain(orchestrator)

    def test_seeded_sweep_of_tie_prone_fleets(self):
        """400 fleets from one fixed seed, the same space as above: a
        deterministic net under the hypothesis draws, which shrink toward
        small fleets where a wrong tie rule often reads the same."""
        rng = random.Random(20250)
        for _ in range(400):
            jobs = [make_job(f"cam-{index}", rng.choice(TIE_PRONE_SECONDS),
                             rng.choice(TIE_PRONE_SECONDS),
                             rng.choice(TIE_PRONE_BYTES),
                             rng.choice(TIE_PRONE_BYTES))
                    for index in range(rng.randint(1, 16))]
            kwargs = dict(num_edge_servers=rng.randint(1, 4),
                          edge_workers=rng.randint(1, 3),
                          cloud_workers=rng.randint(1, 4),
                          policy=rng.choice(POLICIES),
                          config=rng.choice((ZERO_LATENCY, SystemConfig())))
            if rng.random() < 0.5:
                offsets = [rng.choice((0.0, 0.5, 0.75, 1.0, 2.0))
                           for _ in jobs]
                orchestrator = PinnedOffsets(jobs, offsets, **kwargs)
            else:
                orchestrator = FleetOrchestrator(
                    jobs, arrival_jitter_seconds=rng.choice((0.0, 2.0)),
                    seed=rng.randint(0, 1000), **kwargs)
            assert_recurrence_is_chain(orchestrator)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_heterogeneous_jittered_fleet(self, policy):
        jobs = [make_job(f"cam-{index:02d}",
                         edge_seconds=0.7 + (index % 5) * 0.13,
                         cloud_seconds=0.4 + (index % 5) * 0.05,
                         camera_edge_bytes=800_000 + (index % 5) * 1013,
                         edge_cloud_bytes=250_000 + (index % 5) * 577)
                for index in range(40)]
        assert_recurrence_is_chain(FleetOrchestrator(
            jobs, num_edge_servers=3, policy=policy, edge_workers=2,
            arrival_jitter_seconds=1.5, seed=11))

    @pytest.mark.parametrize("edge_workers", [1, 2, 3])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_the_chain(self, policy, edge_workers):
        assert_recurrence_is_chain(FleetOrchestrator(
            make_fleet_jobs(14), num_edge_servers=5, policy=policy,
            edge_workers=edge_workers, arrival_jitter_seconds=1.0, seed=7))

    @pytest.mark.parametrize("num_edges,policy,jitter", [
        (1, "round-robin", 0.0),
        (3, "round-robin", 0.0),
        (4, "least-loaded", 0.0),
        (3, "bandwidth-aware", 2.0),
        (2, "least-loaded", 1.5),
    ])
    def test_matches_the_chain_across_placements(self, num_edges, policy,
                                                 jitter):
        assert_recurrence_is_chain(FleetOrchestrator(
            make_fleet_jobs(12), num_edge_servers=num_edges, policy=policy,
            arrival_jitter_seconds=jitter, seed=11))

    @pytest.mark.parametrize("count,num_edges,edge_workers,cloud_workers", [
        (12, 5, 1, 1), (12, 5, 1, 2), (12, 5, 1, 5),
        (600, 4, 1, 1), (600, 4, 2, 3),
    ])
    def test_homogeneous_jobs_force_ties(self, count, num_edges, edge_workers,
                                         cloud_workers):
        """Identical jobs, zero jitter: every edge's timeline is the same
        floats, so each cloud admission is a tie across edges, and in the
        long fleets the tie walks reach back hundreds of events."""
        assert_recurrence_is_chain(FleetOrchestrator(
            make_fleet_jobs(count, heterogeneous=False),
            num_edge_servers=num_edges, policy="round-robin",
            edge_workers=edge_workers, cloud_workers=cloud_workers))

    def test_run_is_deterministic(self):
        def run():
            return FleetOrchestrator(make_fleet_jobs(10), num_edge_servers=3,
                                     seed=5, arrival_jitter_seconds=1.0).run()

        first, second = run(), run()
        assert first.as_dict() == second.as_dict()
        assert exact_view(first) == exact_view(second)


#: Service seconds on a dyadic grid: sums of them are exact, so ends fall
#: on later arrivals and on each other, and each is a whole number of WAN
#: bytes at zero latency.
QUARTER_SECONDS = (0.0, 0.25, 0.5, 1.0)


def seam_fleet(offsets, placement, count, edge, wan_seconds, cloud):
    """A fleet of ``count`` edges at zero latency with zero LAN bytes, so
    every station sees the drawn seconds: each edge station serves
    ``edge = (workers, seconds)``, each uplink takes ``wan_seconds`` a job
    and the cloud serves ``cloud = (workers, seconds)``."""
    (edge_workers, edge_seconds), (cloud_workers, cloud_seconds) = edge, cloud
    jobs = [make_job(f"cam-{index}", edge_job, cloud_job,
                     edge_cloud_bytes=int(wan * SECOND_OF_WAN))
            for index, (edge_job, cloud_job, wan) in enumerate(zip(
                edge_seconds, cloud_seconds, wan_seconds))]
    return PinnedOffsets(jobs, offsets, placement, num_edge_servers=count,
                         edge_workers=edge_workers,
                         cloud_workers=cloud_workers, config=ZERO_LATENCY)


def paced(rng, jobs, count, gaps):
    """Ingests of ``jobs`` jobs on ``count`` edges (job ``j`` on edge
    ``j % count``), each a drawn gap after its edge's last."""
    clocks = [0.0] * count
    offsets = []
    for job in range(jobs):
        clocks[job % count] += rng.choice(gaps)
        offsets.append(clocks[job % count])
    return offsets


def downstream(rng, jobs):
    """Tie-prone uplink seconds and a cloud of 1-3 workers behind the
    edges under test."""
    return ([rng.choice(QUARTER_SECONDS) for _ in range(jobs)],
            (rng.randint(1, 3), [rng.choice(QUARTER_SECONDS)
                                 for _ in range(jobs)]))


def sparse_waits(rng):
    """Edges of 2-3 workers fed every 0.25 or 0.5 s whose services mostly
    fit between arrivals, and now and then one does not: jobs wait
    mid-run, sparsely, so heap segments open and close several times per
    edge.  On the dyadic grid many ends fall on arrivals, so segments also
    open and close on ties."""
    count, jobs = rng.randint(1, 2), rng.randint(48, 160)
    seconds = [rng.choice((0.0, 0.25, 0.5) * 6 + (1.0, 1.75))
               for _ in range(jobs)]
    return seam_fleet(paced(rng, jobs, count, (0.25, 0.5)),
                      [job % count for job in range(jobs)], count,
                      (rng.randint(2, 3), seconds), *downstream(rng, jobs))


def cascades(rng):
    """One-worker edges where one long service swallows a cascade of later
    runs.  Jobs ingest a second apart with services that mostly end
    before the next arrival, so the closed form splits them into short
    runs; the long service's backlog drains a quarter second or so a job,
    and each run it reaches pushes the next one's ends later."""
    count, jobs = rng.randint(1, 2), rng.randint(12, 48)
    seconds = [rng.choice((0.5, 0.75, 0.75, 1.0, 1.25)) for _ in range(jobs)]
    seconds[rng.randrange(min(jobs, 4 * count))] = rng.choice((4.0, 8.0,
                                                               16.0))
    return seam_fleet(paced(rng, jobs, count, (1.0,)),
                      [job % count for job in range(jobs)], count,
                      (1, seconds), *downstream(rng, jobs))


def zero_second_boundaries(rng):
    """Zero-second services where runs meet, on 1-3 workers: ingests on a
    half-second grid with repeats and services of 0 or 0.5 s, so a run
    ends on a later arrival, a zero-second job ends at its own start, and
    runs begin and end on ties."""
    count, jobs = rng.randint(1, 3), rng.randint(8, 40)

    def seconds():
        return [rng.choice((0.0, 0.0, 0.5)) for _ in range(jobs)]

    return seam_fleet([0.5 * rng.randint(0, jobs // 2) for _ in range(jobs)],
                      [rng.randrange(count) for _ in range(jobs)], count,
                      (rng.randint(1, 3), seconds()), seconds(),
                      (rng.randint(1, 3), seconds()))


class TestStationSeams:
    """The seams of the stations' columns, as fleets against the event
    loop: one-worker busy periods that merge until none swallows the next,
    and heap segments of a station of several workers that open and close
    between closed-form stretches.  Each large fleet is built from one
    drawn seed."""

    @pytest.mark.parametrize("shape", [sparse_waits, cascades,
                                       zero_second_boundaries])
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_fleets_of_each_shape(self, shape, seed):
        assert_recurrence_is_chain(shape(random.Random(seed)))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("pattern", ["all-busy", "all-idle"])
    def test_busy_and_idle_stations(self, workers, pattern):
        jobs = 12
        offsets = ([0.0] * jobs if pattern == "all-busy"
                   else [10.0 * job for job in range(jobs)])
        seconds = [0.5, 0.0, 1.0, 0.25] * 3
        assert_recurrence_is_chain(seam_fleet(
            offsets, [job % 2 for job in range(jobs)], 2, (workers, seconds),
            seconds[::-1], (workers, seconds[::-1])))

    @pytest.mark.parametrize("edge", range(_WINDOW, _WINDOW + 8))
    def test_a_wait_just_past_a_checked_window(self, edge):
        """Two workers.  Rank 2 waits, so a heap segment opens and closes
        a rank or two later; the closed-form check then covers about
        ``_WINDOW`` ranks, passes, and hands on the keys of the jobs still
        in service.  Ranks ``edge - 2`` and ``edge - 1`` arrive together
        and are both busy when rank ``edge`` arrives, which waits: for
        some ``edge`` the window ends between them and it, so the wait is
        found from keys the window handed on."""
        offsets = [0.0, 0.0, 0.0] + [float(rank) for rank in range(3, edge)]
        offsets[edge - 1] = offsets[edge - 2]
        offsets.append(offsets[edge - 1] + 0.5)
        seconds = [1.0] * 3 + [0.5] * (edge - 5) + [2.0, 2.0, 0.5]
        assert_recurrence_is_chain(seam_fleet(
            offsets, [0] * len(offsets), 1, (2, seconds), seconds,
            (1, seconds)))

    def test_an_empty_station_between_busy_ones(self):
        report = assert_recurrence_is_chain(seam_fleet(
            [0.0, 0.0, 0.5, 0.5], [0, 0, 2, 2], 3, (1, [1.0, 0.0, 1.0, 0.0]),
            [0.5] * 4, (2, [0.5] * 4)))
        assert report.edge_tiers[1].completed == 0


def scaled_fleet(costs, config, jitter, k):
    """The fleet's jobs, config and jitter with time scaled by ``2**k``:
    stage seconds, latencies and jitter times ``2**k``, bandwidths over
    it, so every transfer time is ``2**k`` times the unscaled one."""
    factor = 2.0 ** k
    jobs = [make_job(f"cam-{index}", edge * factor, cloud * factor, lan, wan)
            for index, (edge, cloud, lan, wan) in enumerate(costs)]
    config = replace(
        config,
        camera_edge_bandwidth_mbps=config.camera_edge_bandwidth_mbps / factor,
        edge_cloud_bandwidth_mbps=config.edge_cloud_bandwidth_mbps / factor,
        camera_edge_latency_ms=config.camera_edge_latency_ms * factor,
        edge_cloud_latency_ms=config.edge_cloud_latency_ms * factor)
    return jobs, config, jitter * factor


def times_of(report):
    """Every number of the report that is a time, in one array."""
    tiers = report.edge_tiers + report.wan_tiers + [report.cloud_tier]
    return np.concatenate([
        report.outcomes.instants.ravel(),
        [tier.busy_seconds for tier in tiers],
        [report.makespan_seconds, report.edge_busy_seconds,
         report.cloud_busy_seconds, report.wan_transfer_seconds],
        list(report.latency_percentiles.values())])


def untimed_view(report):
    """Every number of the report that time scaling must not move."""
    tiers = report.edge_tiers + report.wan_tiers + [report.cloud_tier]
    return ([(tier.utilisation.hex(), tier.max_queue_depth, tier.completed)
             for tier in tiers],
            report.outcomes.edges.tolist(), report.assignments,
            report.total_frames, report.camera_edge_bytes,
            report.edge_cloud_bytes, report.events_processed)


class TestPowerOfTwoTimeScaling:
    """An oracle-free relation that holds bit for bit (ROADMAP 13(a)).

    A power of two moves only a float's exponent, so scaling every time of
    a fault-free fleet by ``2**k`` scales every sum, max and interpolation
    the fleet makes of them by exactly ``2**k``.  Any absolute constant
    in a station breaks it: an epsilon in the comparison of an arrival
    with the instant a worker frees up makes the ``2**-52`` gap of
    ``1 + 2**-52`` a tie at one scale and not at another.
    """

    @pytest.mark.parametrize("runner", ["run", "_run_chain"])
    @settings(max_examples=60, deadline=None)
    @given(costs=st.lists(st.tuples(st.sampled_from(TIE_PRONE_SECONDS),
                                    st.sampled_from(TIE_PRONE_SECONDS),
                                    st.sampled_from(TIE_PRONE_BYTES),
                                    st.sampled_from(TIE_PRONE_BYTES)),
                          min_size=1, max_size=12),
           identical=st.booleans(),
           num_edges=st.integers(1, 4), edge_workers=st.integers(1, 3),
           cloud_workers=st.integers(1, 4), policy=st.sampled_from(POLICIES),
           config=st.sampled_from((SystemConfig(), ZERO_LATENCY)),
           jitter=st.sampled_from((0.0, 0.0, 0.75, 2.0)),
           seed=st.integers(0, 1000),
           k=st.integers(-40, 40).filter(bool))
    def test_every_time_scales_exactly(
            self, runner, costs, identical, num_edges, edge_workers,
            cloud_workers, policy, config, jitter, seed, k):
        if identical:
            # Identical jobs with no jitter tie at every delivery.
            costs, jitter = [costs[0]] * len(costs), 0.0

        def run(scale):
            jobs, scaled_config, scaled_jitter = scaled_fleet(
                costs, config, jitter, scale)
            return getattr(FleetOrchestrator(
                jobs, num_edge_servers=num_edges, config=scaled_config,
                policy=policy, edge_workers=edge_workers,
                cloud_workers=cloud_workers,
                arrival_jitter_seconds=scaled_jitter, seed=seed), runner)()

        base, scaled = run(0), run(k)
        assert np.array_equal(times_of(scaled), times_of(base) * 2.0 ** k)
        assert untimed_view(scaled) == untimed_view(base)


class TestTieBreaks:
    def test_wan_start_order_alone_does_not_order_the_cloud(self):
        """Regression: ``j`` (edge 0) and ``k`` (edge 1) reach the cloud
        at 3.5 s with equal WAN starts (2.5 s) and ``k``'s edge compute
        started first (0.75 s against 1.0 s).  The loop still serves
        ``j`` first: ``j``'s WAN transfer was started by ``p``'s delivery,
        whose own transfer began at 0.5 s, before ``k``'s edge compute.
        A tie-break on (WAN start, edge start, LAN start) serves ``k``."""
        jobs = [make_job("p", 0.5, 0.5, edge_cloud_bytes=2 * SECOND_OF_WAN),
                make_job("k", 1.75, 0.5),
                make_job("j", 1.0, 1.0)]
        report = assert_recurrence_is_chain(PinnedOffsets(
            jobs, [0.0, 0.75, 1.0], num_edge_servers=2, config=ZERO_LATENCY,
            cloud_workers=1))
        assert [outcome.end_seconds for outcome in report.outcomes] == [
            3.0, 5.0, 4.5]

    def test_tied_arrivals_with_different_wan_starts(self):
        """Two jobs from different edges reach the cloud at the same instant
        with different WAN starts: the one whose transfer started first was
        inserted first and is served first."""
        jobs = [make_job("late-wan-start", 2.0, 5.0),
                make_job("early-wan-start", 1.0, 1.0,
                         edge_cloud_bytes=2 * SECOND_OF_WAN)]
        report = assert_recurrence_is_chain(FleetOrchestrator(
            jobs, num_edge_servers=2, config=ZERO_LATENCY, cloud_workers=1))
        assert [outcome.end_seconds for outcome in report.outcomes] == [
            9.0, 4.0]

    def test_completion_at_an_arrival_instant_fires_first(self):
        """A cloud completion and a new arrival at the same instant: the
        completion was inserted first (at cloud service start), so the
        arrival finds the slot free and never queues."""
        jobs = [make_job("first", 0.5, 2.0,
                         edge_cloud_bytes=SECOND_OF_WAN // 2),
                make_job("tied", 2.0, 1.0)]
        report = assert_recurrence_is_chain(FleetOrchestrator(
            jobs, num_edge_servers=2, config=ZERO_LATENCY, cloud_workers=1))
        assert [outcome.end_seconds for outcome in report.outcomes] == [
            3.0, 4.0]
        assert report.cloud_tier.max_queue_depth == 0

    def test_identical_jobs_with_cloud_contention(self):
        jobs = [make_job(f"cam-{index:02d}", 0.7, 0.4,
                         camera_edge_bytes=800_000,
                         edge_cloud_bytes=250_000) for index in range(12)]
        assert_recurrence_is_chain(FleetOrchestrator(
            jobs, num_edge_servers=4, cloud_workers=2))

    def test_cloud_fifo_on_one_slot(self):
        jobs = [make_job(f"cam-{index}", 0.0, 2.0, edge_cloud_bytes=0)
                for index in range(3)]
        report = assert_recurrence_is_chain(FleetOrchestrator(
            jobs, num_edge_servers=3, config=ZERO_LATENCY, cloud_workers=1))
        assert [outcome.end_seconds for outcome in report.outcomes] == [
            2.0, 4.0, 6.0]
        assert report.cloud_tier.busy_seconds == 6.0
        assert report.cloud_tier.max_queue_depth == 2

    def test_cloud_parallel_slots(self):
        jobs = [make_job("long", 0.0, 3.0, edge_cloud_bytes=0),
                make_job("short", 0.0, 1.0, edge_cloud_bytes=0)]
        report = assert_recurrence_is_chain(FleetOrchestrator(
            jobs, num_edge_servers=2, config=ZERO_LATENCY, cloud_workers=2))
        assert [outcome.end_seconds for outcome in report.outcomes] == [
            3.0, 1.0]
        assert report.cloud_tier.max_queue_depth == 0


class TestEdgeCases:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_more_edges_than_cameras(self, policy):
        jobs = [make_job(f"cam-{index}") for index in range(2)]
        report = assert_recurrence_is_chain(FleetOrchestrator(
            jobs, num_edge_servers=6, policy=policy))
        assert len(report.edge_tiers) == len(report.wan_tiers) == 6
        idle = [tier for tier in report.edge_tiers if tier.completed == 0]
        assert len(idle) == 4
        assert all(tier.utilisation == 0.0 for tier in idle)
        assert math.isfinite(report.mean_edge_utilisation)

    def test_empty_fleet(self):
        report = assert_recurrence_is_chain(
            FleetOrchestrator([], num_edge_servers=3))
        assert report.num_cameras == 0 and report.events_processed == 0

    def test_zero_cost_job_has_infinite_throughput(self):
        """Makespan 0 with frames moved: throughput is inf on both paths,
        utilisation 0, and the report still equals itself."""
        job = CameraJob(camera="z", video="v", num_frames=10,
                        frames_for_inference=0, edge_seconds=0.0,
                        cloud_seconds=0.0, camera_edge_bytes=0,
                        edge_cloud_bytes=0)
        report = assert_recurrence_is_chain(FleetOrchestrator(
            [job], num_edge_servers=3, config=ZERO_LATENCY))
        assert report.makespan_seconds == 0.0
        assert report.aggregate_throughput_fps == math.inf
        assert all(tier.utilisation == 0.0 for tier in report.edge_tiers)
        assert report.cloud_tier.utilisation == 0.0

    def test_events_processed_counts_the_chains_events(self):
        jobs = [make_job(f"cam-{index}") for index in range(7)]
        report = assert_recurrence_is_chain(
            FleetOrchestrator(jobs, num_edge_servers=2))
        assert report.events_processed == 5 * len(jobs)


def station_inputs(arrivals, stage=4):
    """``when`` / ``parent`` with job ``j``'s admission to ``stage`` at
    ``arrivals[j]``, inserted before the run (parent ``-1``), as the
    recurrence keeps them: packed columns behind memoryviews."""
    when = memoryview(array("d", [0.0]) * (EVENTS_PER_JOB * len(arrivals)))
    parent = memoryview(array("i", [-1]) * len(when))
    for job, arrival in enumerate(arrivals):
        when[EVENTS_PER_JOB * job + stage - 1] = arrival
    return when, parent


def serve(admitted, stage, service, slots, when, parent):
    """One station through the recurrence's station routine: the jobs in
    the order their completions fire, and the station's statistics."""
    stats = StationStats()
    order = _station(np.array(admitted, dtype=np.int64),
                     np.array([len(admitted)]), stage,
                     np.array(service, dtype=np.float64), slots, when,
                     parent, {}, [stats])
    return order.tolist(), stats


def _cloud_arrival_order(when, parent, ties):
    """Job indices in the order their WAN deliveries fire."""
    times = np.asarray(when[_WAN::EVENTS_PER_JOB], dtype=np.float64)
    return _firing_order(np.arange(len(times)), _WAN, times,
                         when, parent, ties).tolist()


def completion_times(when, jobs, stage=4):
    return [when[EVENTS_PER_JOB * job + stage] for job in jobs]


class TestServe:
    """One station of the recurrence, against hand-computed timelines."""

    def test_fifo_and_stats_on_one_slot(self):
        when, parent = station_inputs([0.0, 0.0, 1.0])
        order, stats = serve([0, 1, 2], 4, [2.0, 2.0, 2.0], 1, when, parent)
        assert list(order) == [0, 1, 2]
        assert completion_times(when, range(3)) == [2.0, 4.0, 6.0]
        assert stats == StationStats(busy_seconds=6.0, completed=3,
                                     arrivals=3, max_queue_depth=2)

    def test_parallel_slots_hand_jobs_on_in_completion_order(self):
        when, parent = station_inputs([0.0, 0.0])
        order, stats = serve([0, 1], 4, [3.0, 1.0], 2, when, parent)
        assert completion_times(when, range(2)) == [3.0, 1.0]
        assert list(order) == [1, 0]
        assert stats.max_queue_depth == 0
        assert stats.busy_seconds == 4.0

    def test_a_prescheduled_arrival_fires_before_a_tied_completion(self):
        """Job 1's admission was inserted before the run, job 0's
        completion during it: at the shared instant the admission fires
        first, finds the worker busy and is counted as queued."""
        when, parent = station_inputs([0.0, 2.0])
        _, stats = serve([0, 1], 4, [2.0, 1.0], 1, when, parent)
        assert completion_times(when, range(2)) == [2.0, 3.0]
        assert stats.max_queue_depth == 1

    @pytest.mark.parametrize("slots", [1, 2])
    def test_an_idle_station_has_empty_stats(self, slots):
        order, stats = serve([], 2, [], slots, *station_inputs([]))
        assert list(order) == []
        assert stats == StationStats()


class TestFiresBefore:
    def test_distinct_times_order_by_time(self):
        when, parent = [2.0, 1.0], [-1, -1]
        assert _fires_before(1, 0, when, parent, {})
        assert not _fires_before(0, 1, when, parent, {})

    def test_tied_ingests_fire_in_job_order(self):
        when, parent = [0.5, 0.5], [-1, -1]
        assert _fires_before(0, 1, when, parent, {})
        assert not _fires_before(1, 0, when, parent, {})

    def test_an_event_inserted_before_the_run_comes_first(self):
        when, parent = [0.5, 1.0, 1.0], [-1, -1, 0]
        assert _fires_before(1, 2, when, parent, {})
        assert not _fires_before(2, 1, when, parent, {})

    def test_a_direct_start_precedes_the_next_dispatch(self):
        """Event 2 (job 0 leaves the edge) inserts event 3 (job 0's WAN
        transfer, a direct start) and event 7 (job 1, waiting at the same
        edge, starts service): the direct start was inserted first."""
        when = [0.0] * (2 * EVENTS_PER_JOB)
        parent = [-1] * len(when)
        when[3] = when[7] = 4.0
        parent[3] = parent[7] = 2
        assert _fires_before(3, 7, when, parent, {})
        assert not _fires_before(7, 3, when, parent, {})

    def test_equal_times_defer_to_the_inserting_events(self):
        when, parent = [0.0, 0.0, 1.0, 1.0], [-1, -1, 1, 0]
        assert _fires_before(3, 2, when, parent, {})
        assert not _fires_before(2, 3, when, parent, {})

    def test_a_walk_memoises_every_pair_it_passes(self):
        """Two equal-time chains split at their roots: the walk records
        both orientations of each tied pair above the roots, and a later
        walk that meets a recorded pair stops there."""
        when = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        parent = [-1, -1, 0, 1, 2, 3, 5, 4]
        ties = {}
        assert _fires_before(4, 5, when, parent, ties)
        assert ties == {(4, 5): True, (5, 4): False,
                        (2, 3): True, (3, 2): False}
        parent[4] = parent[5] = None  # unreachable once (4, 5) is known
        assert _fires_before(7, 6, when, parent, ties)
        assert ties[6, 7] is False


class TestCloudArrivalOrder:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 100.0), unique=True, max_size=20))
    def test_distinct_deliveries_enter_by_time(self, times):
        when, parent = station_inputs(times)
        assert _cloud_arrival_order(when, parent, {}) == sorted(
            range(len(times)), key=times.__getitem__)

    @pytest.mark.parametrize("ingests,expected", [
        ((0.0, 0.0), [0, 1]),
        ((0.5, 0.0), [1, 0]),
    ])
    def test_tied_deliveries_follow_their_ingests(self, ingests, expected):
        when, parent = station_inputs([1.0, 1.0])
        for job, ingest in enumerate(ingests):
            when[EVENTS_PER_JOB * job] = ingest
            parent[EVENTS_PER_JOB * job + 3] = EVENTS_PER_JOB * job
        assert _cloud_arrival_order(when, parent, {}) == expected


class TestDispatch:
    def test_fault_free_run_fires_no_event(self, monkeypatch):
        def no_loop(self, until=None):
            raise AssertionError("a fault-free fleet must not run the loop")

        monkeypatch.setattr(EventScheduler, "run", no_loop)
        jobs = [make_job(f"cam-{index}") for index in range(4)]
        report = FleetOrchestrator(jobs, num_edge_servers=2).run()
        assert report.cloud_tier.completed == 4
