"""The recurrence's station routine against the scalar steps it replaced.

``repro.cluster.recurrence._station`` serves every station of a stage at
once, on columns: one-worker busy periods as running sums over runs that
merge until none swallows the next, and the closed form on a station of
several workers with heap segments only where jobs wait.
``station_oracle.py`` holds the per-station ``_serve`` / ``_serve_one``
that stepped through every job.
The contract is bit identity at tolerance 0.0: every event's instant and
inserting event, every station's completion order and every
``StationStats`` field.

Each case is a two-stage tandem, so the second stage admits jobs whose
admission events carry the parents a real run gives them.  The draws lean
on ties: zero-second services, equal arrivals, all-busy stations (every
job arrives at once) and all-idle ones (arrivals far apart); and on the
seams of the columns: sparse waits that open and close heap segments, a
long service that swallows a cascade of runs, and zero-second services
where runs meet.
"""

from __future__ import annotations

from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.recurrence import _WINDOW, EVENTS_PER_JOB, _station
from repro.dataflow.scheduler import StationStats
from station_oracle import _serve

TIE_PRONE_SECONDS = (0.0, 0.25, 0.5, 1.0)
TIE_PRONE_ARRIVALS = (0.0, 0.25, 0.5, 1.0, 1.5)


def event_graph(ingests, chained, stations):
    """``when`` / ``parent`` with every job's ingest (event 0) at its
    instant.  Each ingest was inserted before the run, or (``chained``)
    by the ingest before it on its station, as a feeder's push is."""
    when = memoryview(array("d", [0.0]) * (EVENTS_PER_JOB * len(ingests)))
    parent = memoryview(array("i", [-1]) * len(when))
    for job, instant in enumerate(ingests):
        when[EVENTS_PER_JOB * job] = instant
    if chained:
        for jobs in stations:
            for earlier, later in zip(jobs, jobs[1:]):
                parent[EVENTS_PER_JOB * later] = EVENTS_PER_JOB * earlier
    return when, parent


def ingest_order(ingests, placement, count):
    """Each station's jobs in the order their ingests fire: by instant,
    then by job (inserted before the run, or each by the one before)."""
    return [sorted((job for job in range(len(ingests))
                    if placement[job] == station),
                   key=lambda job: (ingests[job], job))
            for station in range(count)]


def run_oracle(stages, stations, when, parent, prior):
    """Every stage through the oracle, station by station."""
    ties = {}
    orders, stats = [], []
    admitted = stations
    for stage, (slots, service) in enumerate(stages, start=1):
        served = [_serve(list(jobs), stage, service, slots, when, parent,
                         ties, replace(seed)) for jobs, seed
                  in zip(admitted, prior)]
        admitted = [list(order) for order, _ in served]
        orders.append(admitted)
        stats.append([station for _, station in served])
    return orders, stats


def run_stations(stages, stations, when, parent, prior):
    """Every stage through ``_station``, all stations at once."""
    ties = {}
    orders, stats = [], []
    counts = np.array([len(jobs) for jobs in stations])
    admitted = np.array([job for jobs in stations for job in jobs],
                        dtype=np.int64)
    for stage, (slots, service) in enumerate(stages, start=1):
        folded = [replace(seed) for seed in prior]
        admitted = _station(admitted, counts, stage,
                            np.array(service, dtype=np.float64), slots,
                            when, parent, ties, folded)
        flat = admitted.tolist()
        starts = np.cumsum(counts) - counts
        orders.append([flat[start:start + count] for start, count
                       in zip(starts.tolist(), counts.tolist())])
        stats.append(folded)
    return orders, stats


def assert_same_run(ingests, placement, count, stages, chained, prior):
    stations = ingest_order(ingests, placement, count)
    expected_graph = event_graph(ingests, chained, stations)
    actual_graph = event_graph(ingests, chained, stations)
    expected = run_oracle(stages, stations, *expected_graph, prior)
    actual = run_stations(stages, stations, *actual_graph, prior)
    assert bytes(actual_graph[0]) == bytes(expected_graph[0])  # instants
    assert bytes(actual_graph[1]) == bytes(expected_graph[1])  # parents
    assert actual[0] == expected[0]  # completion orders
    for folded, oracle in zip(actual[1], expected[1]):
        assert [(station.busy_seconds.hex(), station.completed,
                 station.arrivals, station.max_queue_depth)
                for station in folded] == [
            (station.busy_seconds.hex(), station.completed,
             station.arrivals, station.max_queue_depth)
            for station in oracle]


@st.composite
def tandems(draw):
    """Jobs placed on 1-3 stations, ingesting at tie-prone, equal (all
    busy) or far-apart (all idle) instants, through two stages of 1-3
    workers with tie-prone service seconds."""
    jobs = draw(st.integers(0, 14))
    count = draw(st.integers(1, 3))
    placement = draw(st.lists(st.integers(0, count - 1), min_size=jobs,
                              max_size=jobs))
    pattern = draw(st.sampled_from(("tie-prone", "all-busy", "all-idle")))
    if pattern == "all-busy":
        ingests = [0.0] * jobs
    elif pattern == "all-idle":
        ingests = [100.0 * job for job in range(jobs)]
    else:
        ingests = draw(st.lists(st.sampled_from(TIE_PRONE_ARRIVALS),
                                min_size=jobs, max_size=jobs))
    stages = [(draw(st.integers(1, 3)),
               draw(st.lists(st.sampled_from(TIE_PRONE_SECONDS),
                             min_size=jobs, max_size=jobs)))
              for _ in range(2)]
    chained = draw(st.booleans())
    prior = [StationStats(busy_seconds=draw(st.sampled_from((0.0, 0.1))),
                          completed=3, arrivals=3,
                          max_queue_depth=draw(st.integers(0, 2)))
             for _ in range(count)]
    return ingests, placement, count, stages, chained, prior


def paced(draw, jobs, count, gaps):
    """Ingests of ``jobs`` jobs on ``count`` stations (job ``j`` on
    station ``j % count``), each a drawn gap after its station's last."""
    clocks = [0.0] * count
    ingests = []
    for job in range(jobs):
        clocks[job % count] += draw(st.sampled_from(gaps))
        ingests.append(clocks[job % count])
    return ingests


def second_stage(draw, jobs):
    """A tie-prone stage of 1-3 workers behind the one under test."""
    return (draw(st.integers(1, 3)),
            draw(st.lists(st.sampled_from(TIE_PRONE_SECONDS),
                          min_size=jobs, max_size=jobs)))


@st.composite
def sparse_waits(draw):
    """Stations of 2-3 workers fed every 0.25 or 0.5 s whose services
    mostly fit between arrivals, and now and then one does not: jobs wait
    mid-run, sparsely, so heap segments open and close several times per
    station.  On the dyadic grid many ends fall on arrivals, so segments
    also open and close on ties."""
    slots = draw(st.integers(2, 3))
    count = draw(st.integers(1, 2))
    jobs = draw(st.integers(48, 160))
    ingests = paced(draw, jobs, count, (0.25, 0.5))
    seconds = draw(st.lists(st.sampled_from((0.0, 0.25, 0.5) * 6
                                            + (1.0, 1.75)),
                            min_size=jobs, max_size=jobs))
    return (ingests, [job % count for job in range(jobs)], count,
            [(slots, seconds), second_stage(draw, jobs)],
            draw(st.booleans()), [StationStats() for _ in range(count)])


@st.composite
def cascades(draw):
    """One-worker stations where one long service swallows a cascade of
    later runs.  Jobs ingest a second apart with services that mostly end
    before the next arrival, so the closed form splits them into short
    runs; the long service's backlog drains a quarter second or so a job,
    and each run it reaches pushes the next one's ends later."""
    count = draw(st.integers(1, 2))
    jobs = draw(st.integers(12, 48))
    ingests = paced(draw, jobs, count, (1.0,))
    seconds = draw(st.lists(st.sampled_from((0.5, 0.75, 0.75, 1.0, 1.25)),
                            min_size=jobs, max_size=jobs))
    long = draw(st.integers(0, min(jobs, 4 * count) - 1))
    seconds[long] = draw(st.sampled_from((4.0, 8.0, 16.0)))
    return (ingests, [job % count for job in range(jobs)], count,
            [(1, seconds), second_stage(draw, jobs)], draw(st.booleans()),
            [StationStats() for _ in range(count)])


@st.composite
def zero_second_boundaries(draw):
    """Zero-second services where runs meet, on 1-3 workers: ingests on a
    half-second grid with repeats and services of 0 or 0.5 s, so a run
    ends on a later arrival, a zero-second job ends at its own start, and
    runs begin and end on ties."""
    count = draw(st.integers(1, 3))
    jobs = draw(st.integers(8, 40))
    ingests = [0.5 * step for step in draw(st.lists(
        st.integers(0, jobs // 2), min_size=jobs, max_size=jobs))]
    stages = [(draw(st.integers(1, 3)),
               draw(st.lists(st.sampled_from((0.0, 0.0, 0.5)),
                             min_size=jobs, max_size=jobs)))
              for _ in range(2)]
    return (ingests, draw(st.lists(st.integers(0, count - 1), min_size=jobs,
                                   max_size=jobs)),
            count, stages, draw(st.booleans()),
            [StationStats() for _ in range(count)])


class TestStationAgainstTheScalarSteps:
    @settings(max_examples=400, deadline=None)
    @given(tandems())
    def test_every_bit_of_a_tandem_matches(self, case):
        assert_same_run(*case)

    @settings(max_examples=200, deadline=None)
    @given(sparse_waits())
    def test_sparse_waits_open_and_close_heap_segments(self, case):
        assert_same_run(*case)

    @settings(max_examples=200, deadline=None)
    @given(cascades())
    def test_a_long_service_swallows_a_cascade_of_runs(self, case):
        assert_same_run(*case)

    @settings(max_examples=200, deadline=None)
    @given(zero_second_boundaries())
    def test_zero_second_services_at_run_boundaries(self, case):
        assert_same_run(*case)

    @pytest.mark.parametrize("slots", [1, 2, 3])
    @pytest.mark.parametrize("pattern", ["all-busy", "all-idle"])
    def test_busy_and_idle_stations(self, slots, pattern):
        jobs = 12
        ingests = ([0.0] * jobs if pattern == "all-busy"
                   else [10.0 * job for job in range(jobs)])
        seconds = [0.5, 0.0, 1.0, 0.25] * 3
        assert_same_run(ingests, [job % 2 for job in range(jobs)], 2,
                        [(slots, seconds), (slots, seconds[::-1])], False,
                        [StationStats(), StationStats()])

    @pytest.mark.parametrize("edge", range(_WINDOW, _WINDOW + 8))
    def test_a_wait_just_past_a_checked_window(self, edge):
        """Two workers.  Rank 2 waits, so a heap segment opens and closes
        a rank or two later; the closed-form check then covers about
        ``_WINDOW`` ranks, passes, and hands on the keys of the jobs still
        in service.  Ranks ``edge - 2`` and ``edge - 1`` arrive together
        and are both busy when rank ``edge`` arrives, which waits: for
        some ``edge`` the window ends between them and it, so the wait is
        found from keys the window handed on."""
        ingests = [0.0, 0.0, 0.0] + [float(rank) for rank in range(3, edge)]
        ingests[edge - 1] = ingests[edge - 2]
        ingests.append(ingests[edge - 1] + 0.5)
        seconds = [1.0] * 3 + [0.5] * (edge - 5) + [2.0, 2.0, 0.5]
        assert_same_run(ingests, [0] * len(ingests), 1,
                        [(2, seconds), (1, seconds)], False, [StationStats()])

    def test_an_empty_station_between_busy_ones(self):
        ingests = [0.0, 0.0, 0.5, 0.5]
        assert_same_run(ingests, [0, 0, 2, 2], 3,
                        [(1, [1.0, 0.0, 1.0, 0.0]), (2, [0.5] * 4)], True,
                        [StationStats()] * 3)
