"""The event core against the bodies it replaced.

``OracleScheduler``, ``OracleStation`` and ``OracleLink`` below are the
``EventScheduler``, ``ServiceStation`` and ``ContendedLink`` of commit
``2deb604`` (the parent of the cheaper event core), bodies verbatim:
zero-argument actions, ``submit`` -> ``_try_start`` -> a ``lambda job=job:``
per completion -> ``_finish`` -> ``_active.remove`` -> ``_try_start``, and a
``_deliver`` closure per transfer (which adds to the link's running
totals).  Hypothesis draws whole programs — tie-prone service times,
pauses, resumes, ``fail_all``, slowdowns, callbacks that resubmit — and
runs each through both; everything observable must be
equal at tolerance 0.0, with the same events at the same virtual times in
the same order.

The guards at the bottom pin what the rewrites were for: a chunk costs
five events and a bounded number of Python-level calls on either drain
path, a drained service's links hold no more memory after twice the
chunks, and a ``status()`` costs a flat count of calls a session and
copies a bounded share of the sessions' latencies.
"""

from __future__ import annotations

import gc
import heapq
import sys
import tracemalloc
from collections import deque
from dataclasses import astuple, dataclass
from functools import partial
from typing import Any, Callable, Deque, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CameraJob, fleet
from repro.dataflow.scheduler import (EventScheduler, ServiceStation,
                                      StationStats)
from repro.errors import DataflowError, NetworkError
from repro.net import ContendedLink, NetworkLink
from repro.service import (ChunkFeeder, FrameChunk, StreamingService,
                           TenantPolicy, VirtualClock, chunk_camera_job)

Action = Callable[[], None]


# --------------------------------------------------------------------- #
# The parent's bodies (reference only — nothing in src/ runs them)
# --------------------------------------------------------------------- #

class OracleScheduler:
    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Action]] = []
        self._sequence = 0
        self._now = 0.0
        self.events_processed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def next_event_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def advance_to(self, time: float) -> None:
        if time < self._now:
            raise DataflowError(
                f"cannot advance to {time:.6f}s, clock is at {self._now:.6f}s")
        if self._heap and self._heap[0][0] < time:
            raise DataflowError(
                f"cannot advance to {time:.6f}s past the pending event at "
                f"{self._heap[0][0]:.6f}s")
        self._now = float(time)

    def schedule_at(self, time: float, action: Action) -> None:
        if time < self._now:
            raise DataflowError(
                f"cannot schedule at {time:.6f}s, clock is at {self._now:.6f}s")
        heapq.heappush(self._heap, (float(time), self._sequence, action))
        self._sequence += 1

    def schedule(self, delay: float, action: Action) -> None:
        if delay < 0:
            raise DataflowError(f"event delay must be >= 0, got {delay}")
        self.schedule_at(self._now + delay, action)

    def step(self) -> bool:
        if not self._heap:
            return False
        time, _, action = heapq.heappop(self._heap)
        self._now = time
        self.events_processed += 1
        action()
        return True

    def run(self, until: Optional[float] = None) -> int:
        fired = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            self.step()
            fired += 1
        if until is not None and until > self._now:
            self.advance_to(until)
        return fired


@dataclass(eq=False)
class _OracleJob:
    service_seconds: float
    on_complete: Optional[Callable[[Any], None]]
    payload: Any
    on_start: Optional[Callable[[Any], None]] = None
    started_at: float = 0.0
    on_fail: Optional[Callable[[Any, str], None]] = None
    cancelled: bool = False


class OracleStation:
    def __init__(self, scheduler: OracleScheduler, name: str,
                 capacity: int = 1) -> None:
        if capacity < 1:
            raise DataflowError(f"station capacity must be >= 1, got {capacity}")
        self.scheduler = scheduler
        self.name = name
        self.capacity = capacity
        self.stats = StationStats()
        self._queue: Deque[_OracleJob] = deque()
        self._active: List[_OracleJob] = []
        self._in_service = 0
        self._online = True

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def in_service(self) -> int:
        return self._in_service

    @property
    def online(self) -> bool:
        return self._online

    def submit(self, service_seconds: float,
               on_complete: Optional[Callable[[Any], None]] = None,
               payload: Any = None,
               on_start: Optional[Callable[[Any], None]] = None,
               on_fail: Optional[Callable[[Any, str], None]] = None) -> None:
        if service_seconds < 0:
            raise DataflowError(
                f"service time must be >= 0, got {service_seconds}")
        self.stats.arrivals += 1
        self._queue.append(_OracleJob(float(service_seconds), on_complete,
                                      payload, on_start, on_fail=on_fail))
        self._try_start()

    def pause(self) -> None:
        self._online = False

    def resume(self) -> None:
        self._online = True
        self._try_start()

    def fail_all(self, reason: str = "fault") -> int:
        failed: List[_OracleJob] = []
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

    def _finish(self, job: _OracleJob) -> None:
        if job.cancelled:
            return
        self._in_service -= 1
        self._active.remove(job)
        self.stats.busy_seconds += job.service_seconds
        self.stats.completed += 1
        if job.on_complete is not None:
            job.on_complete(job.payload)
        self._try_start()

    def busy_seconds_elapsed(self, now: Optional[float] = None) -> float:
        if now is None:
            now = self.scheduler.now
        elapsed = self.stats.busy_seconds
        for job in self._active:
            elapsed += min(max(now - job.started_at, 0.0), job.service_seconds)
        return elapsed


class OracleLink:
    def __init__(self, scheduler: OracleScheduler, link: NetworkLink,
                 channels: int = 1) -> None:
        if channels < 1:
            raise NetworkError(f"channels must be >= 1, got {channels}")
        self.link = link
        self._station = OracleStation(scheduler, f"link:{link.name}",
                                      capacity=channels)
        self._slowdown = 1.0

    @property
    def stats(self) -> StationStats:
        return self._station.stats

    @property
    def queue_depth(self) -> int:
        return self._station.queue_depth

    @property
    def in_service(self) -> int:
        return self._station.in_service

    def pause(self) -> None:
        self._station.pause()

    def resume(self) -> None:
        self._station.resume()

    def set_slowdown(self, factor: float) -> None:
        if factor < 1.0:
            raise NetworkError(f"slowdown factor must be >= 1.0, got {factor}")
        self._slowdown = float(factor)

    def fail_all(self, reason: str = "fault") -> int:
        return self._station.fail_all(reason)

    def submit(self, size_bytes: int,
               on_complete: Optional[Callable[[Any], None]] = None,
               payload: Any = None,
               on_start: Optional[Callable[[Any], None]] = None,
               on_fail: Optional[Callable[[Any, str], None]] = None) -> None:
        if size_bytes < 0:
            raise NetworkError("size_bytes must be >= 0")
        duration = self.link.transfer_seconds(size_bytes)
        if self._slowdown != 1.0:
            duration *= self._slowdown

        def _deliver(delivered: Any) -> None:
            self.link.transfer(size_bytes)
            if on_complete is not None:
                on_complete(delivered)

        self._station.submit(duration, on_complete=_deliver, payload=payload,
                             on_start=on_start, on_fail=on_fail)

    def busy_seconds_elapsed(self, now: Optional[float] = None) -> float:
        return self._station.busy_seconds_elapsed(now)


# --------------------------------------------------------------------- #
# Programs
# --------------------------------------------------------------------- #

#: Tie-prone: equal values collide on the heap, ``1 + 2**-52`` is the
#: float next to 1.0 and ``0.0`` completes at the instant it starts.
TIMES = (0.0, 0.5, 1.0, 1.0 + 2.0 ** -52, 2.0)
#: At 8 Mbps one byte is a microsecond, so these are TIMES again.
SIZES = tuple(int(seconds * 1_000_000) for seconds in TIMES)
SLOWDOWNS = (1.0, 1.5, 2.0)
#: Resource 0 and 1 are compute stations, 2 is the link.
LINK = 2

#: What a job's callbacks do: nothing; resubmit on completion to the same
#: resource / the next one; requeue on failure (the fault plane's move);
#: submit a sibling from ``on_start`` (re-enters the station mid-dispatch).
BEHAVIOURS = ("plain", "again", "next", "requeue", "sibling")

job_specs = st.tuples(st.integers(0, 2), st.integers(0, len(TIMES) - 1),
                      st.sampled_from(BEHAVIOURS), st.integers(0, 2))
operations = st.one_of(
    st.tuples(st.just("submit"), job_specs),
    st.tuples(st.sampled_from(("pause", "resume", "fail_all")),
              st.integers(0, 2)),
    st.tuples(st.just("set_slowdown"), st.sampled_from(SLOWDOWNS)))
programs = st.lists(st.tuples(st.sampled_from(TIMES), operations),
                    min_size=1, max_size=24)
drives = st.one_of(
    st.just("run"), st.just("step"),
    st.lists(st.sampled_from(TIMES), min_size=1, max_size=6))


class Harness:
    """One program on one implementation, recording what it can observe."""

    def __init__(self, capacities, oracle: bool) -> None:
        self.oracle = oracle
        scheduler_type, station_type, link_type = (
            (OracleScheduler, OracleStation, OracleLink) if oracle
            else (EventScheduler, ServiceStation, ContendedLink))
        self.scheduler = scheduler_type()
        self.link = NetworkLink("l", bandwidth_mbps=8.0)
        self.resources = [
            station_type(self.scheduler, "a", capacity=capacities[0]),
            station_type(self.scheduler, "b", capacity=capacities[1]),
            link_type(self.scheduler, self.link, channels=capacities[2])]
        self.trace: List[tuple] = []
        self.horizons: List[tuple] = []
        self.serial = 0

    def note(self, kind: str, payload) -> None:
        self.trace.append((self.scheduler.now.hex(), kind, payload))

    def at(self, time: float, action, *args) -> None:
        if self.oracle:
            self.scheduler.schedule_at(time, partial(action, *args))
        else:
            self.scheduler.schedule_at(time, action, *args)

    # -- jobs ---------------------------------------------------------- #
    def submit(self, spec) -> None:
        target, cost, behaviour, budget = spec
        self.serial += 1
        payload = (self.serial, target, cost, behaviour, budget)
        callbacks = dict(on_complete=self.completed, payload=payload,
                         on_start=self.started, on_fail=self.failed)
        if target == LINK:
            self.resources[LINK].submit(SIZES[cost], **callbacks)
        else:
            self.resources[target].submit(TIMES[cost], **callbacks)

    def started(self, payload) -> None:
        self.note("start", payload)
        _, target, cost, behaviour, budget = payload
        if behaviour == "sibling" and budget:
            self.submit((target, cost, "plain", 0))

    def completed(self, payload) -> None:
        self.note("complete", payload)
        _, target, cost, behaviour, budget = payload
        if budget and behaviour == "again":
            self.submit((target, cost, behaviour, budget - 1))
        elif budget and behaviour == "next":
            self.submit(((target + 1) % 3, cost, behaviour, budget - 1))

    def failed(self, payload, reason: str) -> None:
        self.note(f"fail:{reason}", payload)
        _, target, cost, behaviour, budget = payload
        if budget and behaviour == "requeue":
            self.submit((target, cost, behaviour, budget - 1))

    # -- top-level operations ------------------------------------------ #
    def operate(self, operation) -> None:
        kind, argument = operation
        self.note(kind, argument)
        if kind == "submit":
            self.submit(argument)
        elif kind == "set_slowdown":
            self.resources[LINK].set_slowdown(argument)
        else:
            result = getattr(self.resources[argument], kind)(
                *(("drawn",) if kind == "fail_all" else ()))
            self.note(f"{kind}-returned", result)

    def observe(self) -> None:
        scheduler = self.scheduler
        self.horizons.append((
            scheduler.now.hex(), scheduler.events_processed,
            scheduler.pending_events, scheduler.next_event_time,
            tuple((astuple(resource.stats), resource.queue_depth,
                   resource.in_service,
                   resource.busy_seconds_elapsed().hex())
                  for resource in self.resources),
            (self.link.transfer_count, self.link.total_bytes,
             self.link.total_seconds.hex())))

    def run(self, program, drive) -> "Harness":
        time = 0.0
        for delta, operation in program:
            time += delta
            self.at(time, self.operate, operation)
        if drive == "step":
            while self.scheduler.step():
                self.observe()
        elif drive != "run":
            horizon = 0.0
            for delta in drive:
                horizon += delta
                self.note("fired", self.scheduler.run(until=horizon))
                self.observe()
        self.note("fired", self.scheduler.run())
        self.observe()
        return self


class TestAgainstTheParentsBodies:
    @settings(max_examples=300, deadline=None)
    @given(capacities=st.tuples(*[st.integers(1, 4)] * 3),
           program=programs, drive=drives)
    def test_same_events_same_times_same_order(self, capacities, program,
                                               drive):
        expected = Harness(capacities, oracle=True).run(program, drive)
        actual = Harness(capacities, oracle=False).run(program, drive)
        assert actual.trace == expected.trace
        assert actual.horizons == expected.horizons

    def test_the_programs_reach_every_branch(self):
        """The strategy is only an oracle test if its programs queue, fail
        and resubmit; one hand-written program shows each in the trace."""
        program = [(0.0, ("pause", 0)),
                   (0.0, ("submit", (0, 2, "requeue", 1))),
                   (0.0, ("submit", (0, 2, "sibling", 1))),
                   (0.5, ("fail_all", 0)),
                   (0.5, ("resume", 0)),
                   (0.0, ("set_slowdown", 1.5)),
                   (0.0, ("submit", (LINK, 2, "next", 2))),
                   (0.0, ("submit", (LINK, 3, "again", 1))),
                   (2.0, ("fail_all", LINK))]
        expected = Harness((1, 1, 1), oracle=True).run(program, [1.0, 1.0])
        actual = Harness((1, 1, 1), oracle=False).run(program, [1.0, 1.0])
        assert actual.trace == expected.trace
        assert actual.horizons == expected.horizons
        kinds = {kind for _, kind, _ in actual.trace}
        assert {"start", "complete", "fail:drawn"} <= kinds
        assert any(snapshot[0][3] for *_, stations, _ in actual.horizons
                   for snapshot in stations)  # someone waited
        assert actual.link.transfer_count  # and something was delivered


# --------------------------------------------------------------------- #
# What a chunk costs
# --------------------------------------------------------------------- #

SESSIONS, CHUNKS = 4, 64


def _soak_service(loop: bool = False,
                  chunks: int = CHUNKS) -> StreamingService:
    """Four fed sessions on two edges.  With ``loop`` a no-op control event
    keeps the drain on the event loop: the service computes a run of
    nothing but feeder pushes through the recurrence instead."""
    service = StreamingService(num_edge_servers=2, clock=VirtualClock(),
                               max_sessions=SESSIONS)
    if loop:
        service.at(0.0, _no_op)
    for index in range(SESSIONS):
        camera = f"cam-{index}"
        job = CameraJob(
            camera=camera, video=f"stream:{camera}",
            num_frames=300 * chunks, frames_for_inference=30 * chunks,
            edge_seconds=(0.05 + 0.01 * index) * chunks,
            cloud_seconds=0.02 * chunks,
            camera_edge_bytes=150_000 * chunks,
            edge_cloud_bytes=20_000 * chunks)
        service.open_session(camera)
        ChunkFeeder(service, camera, chunk_camera_job(job, chunks),
                    period_seconds=2.0).start(at=0.1 * index)
    return service


def _no_op() -> None:
    """A control event that changes nothing."""


def _counting_calls(action: Callable[[], Any],
                    kind: str = "call") -> Tuple[Any, int]:
    """``action()``'s result and the calls it made: Python-level calls
    (``kind="call"``) or calls into C (``"c_call"``)."""
    calls = 0

    def profile(frame, event, argument) -> None:
        nonlocal calls
        if event == kind:
            calls += 1

    # No collector while counting: what it calls back into (hypothesis
    # registers a ``gc.callbacks`` hook) is not the program's.
    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = action()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return result, calls


def _drain_counting_calls(service: StreamingService,
                          kind: str = "call") -> Tuple[int, int]:
    return _counting_calls(service.drain, kind)


#: Measured: 0.96 Python-level calls a chunk through the recurrence, and
#: 2.10 calls into C (1.08 and 1.87 with a fold and a running maximum per
#: session; 0.96 and 4.66 before the drain went columnar).  One more call
#: of either kind a chunk must fail the guard.
BATCH_CALLS_PER_CHUNK_CEILING = 1.25
BATCH_C_CALLS_PER_CHUNK_CEILING = 2.5
#: Measured: 44.3 calls a chunk on the event loop.  One more call a chunk
#: must fail the guard.
LOOP_CALLS_PER_CHUNK_CEILING = 45


_SMALL_CHUNK = FrameChunk(num_frames=30, frames_for_inference=3,
                          edge_seconds=0.001, cloud_seconds=0.001,
                          camera_edge_bytes=10_000, edge_cloud_bytes=1_000)


def _fed_service(sessions: int) -> StreamingService:
    """``sessions`` fed sessions of one to three chunks each, drained."""
    service = StreamingService(
        num_edge_servers=2, clock=VirtualClock(), max_sessions=sessions,
        tenants=(TenantPolicy("default", max_sessions=sessions),))
    for index in range(sessions):
        camera = f"cam-{index}"
        service.open_session(camera)
        ChunkFeeder(service, camera, [_SMALL_CHUNK] * (1 + index % 3),
                    period_seconds=2.0).start(at=0.01 * index)
    service.drain()
    return service


#: Measured: each session past the 64th adds 6.0 Python-level calls to a
#: ``status()`` (44 with an ``np.percentile`` call a session).
STATUS_CALLS_PER_SESSION_CEILING = 8


def _status_calls(sessions: int) -> int:
    """Python-level calls of a warm ``status()`` on a fed service."""
    service = _fed_service(sessions)
    service.status()  # first-use work (numpy's dispatch, enum lookups)
    return _counting_calls(service.status)[1]


def _status_peak(sessions: int, chunks: int) -> int:
    """``tracemalloc``'s peak over a warm ``status()`` of ``sessions``
    sessions holding ``chunks`` latencies each."""
    service = StreamingService(
        num_edge_servers=2, clock=VirtualClock(), max_sessions=sessions,
        tenants=(TenantPolicy("default", max_sessions=sessions),))
    for index in range(sessions):
        camera = f"cam-{index}"
        service.open_session(camera)
        ChunkFeeder(service, camera, [_SMALL_CHUNK] * chunks,
                    period_seconds=2.0).start(at=0.01 * index)
    service.drain()
    service.status()  # first-use work
    tracemalloc.start()
    try:
        service.status()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _retained_by_links(chunks: int, loop: bool) -> int:
    """Bytes a drained service's links hold, as ``tracemalloc`` sees them
    freed when the links' state is dropped."""
    tracemalloc.start()
    try:
        service = _soak_service(loop=loop, chunks=chunks)
        service.drain()
        links = [*service.lan_links.values(), *service.wan_links]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        for link in links:
            vars(link.link).clear()
            vars(link).clear()
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestWhatAChunkCosts:
    def test_five_events_and_a_bounded_count_of_calls_a_chunk(self):
        """Counts, not timings: they repeat exactly.  The parent's bodies
        made 85.1 Python-level calls a chunk on this drain.  The event
        loop's count: one event beyond five a chunk is the no-op that
        keeps the drain on it."""
        fired, calls = _drain_counting_calls(_soak_service(loop=True))
        repeat = _drain_counting_calls(_soak_service(loop=True))
        assert (fired, calls) == repeat
        chunks = SESSIONS * CHUNKS
        assert fired == 5 * chunks + 1
        assert calls <= LOOP_CALLS_PER_CHUNK_CEILING * chunks, calls / chunks

    def test_the_recurrence_drains_in_one_call_a_chunk(self):
        """The same feed with nothing but feeder pushes pending goes
        through the recurrence as one batch: it reports the loop's five
        events a chunk, in 1.08 Python-level calls a chunk (44.3 on the
        loop) and 1.87 calls into C, a fixed count whatever the chunks.
        A commit that appends each latency on its own makes one more call
        into C a chunk."""
        fired, calls = _drain_counting_calls(_soak_service())
        assert (fired, calls) == _drain_counting_calls(_soak_service())
        _, into_c = _drain_counting_calls(_soak_service(), "c_call")
        chunks = SESSIONS * CHUNKS
        assert fired == 5 * chunks
        assert calls <= BATCH_CALLS_PER_CHUNK_CEILING * chunks, calls / chunks
        assert into_c <= BATCH_C_CALLS_PER_CHUNK_CEILING * chunks, (
            into_c / chunks)

    def test_a_snapshot_costs_a_flat_count_of_calls_a_session(self):
        """``status()`` takes latency percentiles in one ``np.percentile``
        call per group of sessions holding equally many latencies (three
        groups here), so from 64 to 1,024 sessions its Python-level calls
        grow by a fixed few a session."""
        per_session = (_status_calls(1024) - _status_calls(64)) / (1024 - 64)
        assert per_session <= STATUS_CALLS_PER_SESSION_CEILING, per_session

    def test_a_snapshot_copies_a_bounded_share_of_the_latencies(
            self, monkeypatch):
        """``status()`` copies sessions' latencies into matrices of at
        most ``PERCENTILE_BATCH_VALUES`` values (here 2,048: eight
        sessions of 256), so its peak grows by the snapshot objects alone,
        not by the stores.  Measured: 0.6 KB a session past the 16th; one
        matrix of every session (and ``np.percentile``'s copy) adds 4.7
        KB, twice a session's 2 KB store."""
        monkeypatch.setattr(fleet, "PERCENTILE_BATCH_VALUES", 2048)
        chunks = 256
        per_session = (_status_peak(96, chunks)
                       - _status_peak(16, chunks)) / (96 - 16)
        assert per_session < 8 * chunks, per_session

    @pytest.mark.parametrize("loop", [False, True], ids=["batch", "loop"])
    def test_links_hold_no_more_after_twice_the_chunks(self, loop):
        """A link keeps running totals, not a transfer log: draining
        twice the chunks leaves its memory where it was.  A log of one
        8-byte pointer a transfer would add 4 KiB here."""
        _retained_by_links(CHUNKS, loop)  # first-use allocations
        once = _retained_by_links(CHUNKS, loop)
        twice = _retained_by_links(2 * CHUNKS, loop)
        assert twice - once < 1024, (once, twice)
