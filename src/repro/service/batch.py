"""A feeder-fed service run as one batch through the fleet's recurrence.

:meth:`StreamingService.run <repro.service.service.StreamingService.run>`
hands a run here when the event loop would do nothing but fire
:class:`~repro.service.feeder.ChunkFeeder` pushes into an idle chain.
:class:`FeederBatch` lays every remaining push out as one column of
chunks, computes their timelines with
:func:`~repro.cluster.recurrence.replay_fleet` (the fault-free fleet's
recurrence, with a LAN link per session and each push inserted by the one
before it), checks every push against the in-flight bound
``push_frames`` would apply at its instant, and then writes the run into the live stations,
links, sessions and feeders exactly as the event loop leaves them.

The service's adaptive controller (``ingest.on_chunk_scene``) rides
along.  Nothing it does changes a timeline: no chunk's cost reads the
parameters a retune sets.  So the commit hands it every scene-carrying
push at the push's instant, in the order the loop fires those pushes (by
instant, ties by the event graph), before any session is finalised.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from itertools import accumulate, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ..cluster.recurrence import (EVENTS_PER_JOB, _firing_order,
                                  _left_folds, _padded_columns, replay_fleet)
from .feeder import ChunkFeeder
from .session import FrameChunk, StreamSession

if TYPE_CHECKING:
    from .service import StreamingService

#: Rows of a replay's instants: the push, then the ends of the LAN, edge,
#: WAN and cloud stages.
_PUSH, _LAN_END, _EDGE_END, _WAN_END, _CLOUD_END = range(EVENTS_PER_JOB)
_frames = attrgetter("num_frames")
_inference = attrgetter("frames_for_inference")
_edge_seconds = attrgetter("edge_seconds")
_cloud_seconds = attrgetter("cloud_seconds")


class FeederBatch:
    """Every remaining push of the pending feeders as one columnar batch.

    Chunks are numbered feed by feed in push order, the feeds in the order
    their pending pushes were scheduled.  A feed's first push was inserted
    before the run (parent ``-1``, in job order, as the recurrence
    assumes) and each later one by the push before it, at the instant the
    feeder's own arithmetic gives: ``now + period``.
    """

    def __init__(self, service: "StreamingService",
                 feeds: List[Tuple[ChunkFeeder, StreamSession, float]]
                 ) -> None:
        self.service = service
        self.feeds = feeds
        self.chunks: List[FrameChunk] = []
        self.counts: List[int] = []
        #: Each chunk's feed (the index of its LAN link).
        self.keys = array("i")
        for key, (feeder, _, _) in enumerate(feeds):
            plan = feeder.chunks[feeder.next_index:]
            self.chunks.extend(plan)
            self.counts.append(len(plan))
            self.keys.extend(repeat(key, len(plan)))
        chain = service.chain
        self.lans = [chain.lan_links[session.session_id]
                     for _, session, _ in feeds]
        # The stations fold the run into copies: nothing live changes
        # unless every push is admitted.  The push instants and edges are
        # handed over, not kept.
        self.replay = replay_fleet(
            self.chunks,
            np.repeat([session.edge_index for _, session, _ in feeds],
                      self.counts),
            self._push_instants(), service.config,
            service.num_edge_servers, service.edge_workers,
            service.cloud_workers,
            lan_keys=np.frombuffer(self.keys, dtype=np.intc),
            lan_count=len(feeds), chained_ingests=True,
            stats=([replace(lan.stats) for lan in self.lans],
                   [replace(station.stats) for station in chain.edge_stations],
                   [replace(link.stats) for link in chain.wan_links],
                   replace(chain.cloud_station.stats)))
        self.last = float(self.replay.instants[_CLOUD_END].max())

    def _push_instants(self) -> array:
        """Every chunk's push instant, by the feeder's arithmetic."""
        pushes = array("d")
        for (feeder, _, first), count in zip(self.feeds, self.counts):
            pushes.extend(accumulate(
                repeat(feeder.period_seconds, count - 1), initial=first))
        return pushes

    def admitted(self, until: Optional[float]) -> bool:
        """Whether the run ends by ``until`` and every push passes the
        checks ``push_frames`` makes at its instant."""
        return ((until is None or self.last <= until)
                and self._within_pending_bounds())

    def _within_pending_bounds(self) -> bool:
        """Each push finds fewer than ``max_pending_chunks`` of its
        session's chunks in flight.

        Push ``k`` of a session with bound ``b`` is admitted when chunks
        ``0 .. k - b`` all ended before its instant: one running maximum
        down a matrix of every session's ends, padded with ``-inf``.  The
        pushes it cannot clear are counted event by event.
        """
        instants = self.replay.instants
        fires_before = self.replay.fires_before
        ends, pushes = instants[_CLOUD_END], instants[_PUSH]
        counts = np.array(self.counts)
        starts = np.cumsum(counts) - counts
        bounds = np.array([session.max_pending_chunks
                           for _, session, _ in self.feeds])
        # Chunk i of each session, against push i + b.
        checked = np.maximum(counts - bounds, 0)
        offsets = np.cumsum(checked) - checked
        chunks = (np.repeat(starts - offsets, checked)
                  + np.arange(int(checked.sum())))
        pushed = chunks + np.repeat(bounds, checked)
        owner = np.repeat(np.arange(len(counts)), checked)
        for _, index, inside, grid in _padded_columns(ends[chunks], checked,
                                                      -np.inf):
            ended = np.maximum.accumulate(grid, axis=0)[inside]
            doubtful = index[ended >= pushes[pushed[index]]]
            for k, start, bound in zip(pushed[doubtful].tolist(),
                                       starts[owner[doubtful]].tolist(),
                                       bounds[owner[doubtful]].tolist()):
                push = EVENTS_PER_JOB * k
                completed = sum([fires_before(
                    EVENTS_PER_JOB * i + _CLOUD_END, push)
                    for i in range(start, k)])
                if k - start - completed >= bound:
                    return False
        return True

    def _scene_pushes(self) -> List[Tuple[int, float]]:
        """``(chunk, push instant)`` of every scene-carrying push, in the
        order the loop fires them."""
        scened = np.array([index for index, chunk in enumerate(self.chunks)
                           if chunk.scene is not None], dtype=np.int64)
        pushes = self.replay.instants[_PUSH]
        order = _firing_order(scened, _PUSH, pushes,
                              self.replay.fires_before)
        return list(zip(order.tolist(), pushes[order].tolist()))

    def commit(self, until: Optional[float]) -> int:
        """Write the run into the live service, as the event loop leaves
        it, and return the number of events it fired.

        Column by column: integer totals are run sums over each session's
        chunks, seconds are left folds in the order the live objects
        would add them, and each session's latencies arrive in the order
        its completions fire, one ``frombytes`` a session.
        """
        service = self.service
        chain, ingest = service.chain, service.ingest
        scene_pushes = (self._scene_pushes()
                        if ingest.on_chunk_scene is not None else [])
        # Drop the event graph before anything is written.
        replay = self.replay._replace(fires_before=None)
        self.replay = None
        # The scene hook sees the pushes while every session is open.
        for index, now in scene_pushes:
            ingest.on_chunk_scene(self.feeds[self.keys[index]][1],
                                  self.chunks[index], now)
        for resource, stats in zip(
                (*self.lans, *chain.edge_stations, *chain.wan_links,
                 chain.cloud_station),
                (*replay.lan_stats, *replay.edge_stats, *replay.wan_stats,
                 replay.cloud_stats)):
            vars(resource.stats).update(vars(stats))

        chunks, counts = self.chunks, self.counts
        starts = list(accumulate(counts[:-1], initial=0))
        instants = replay.instants
        ends, pushes = instants[_CLOUD_END], instants[_PUSH]
        # Each session's completions, in the order they fire: the cloud's
        # completion order, grouped by session.
        finished = replay.finished
        by_session = finished[np.argsort(
            np.frombuffer(self.keys, dtype=np.intc)[finished], kind="stable")]
        latencies = (ends - pushes)[by_session]
        firsts = pushes[starts].tolist()
        lasts = pushes[[start + count - 1 for start, count
                        in zip(starts, counts)]].tolist()
        last_completions = np.maximum.reduceat(ends, starts).tolist()
        totals = {
            "frames_pushed": _run_sums(list(map(_frames, chunks)), starts,
                                       counts),
            "frames_for_inference": _run_sums(
                list(map(_inference, chunks)), starts, counts),
            "camera_edge_bytes_pushed": _run_sums(replay.lan_bytes, starts,
                                                  counts),
            "edge_cloud_bytes_pushed": _run_sums(replay.wan_bytes, starts,
                                                 counts)}
        # Seconds are left folds from each session's or link's total.
        # Each link's are folded in delivery order, as its transfers would
        # add them: a session's LAN link delivers in push order, each WAN
        # link (below) in its replayed order.
        sessions = [session for _, session, _ in self.feeds]
        lengths = np.array(counts)
        folds = {name: _left_folds(
            list(map(attrgetter(name), sessions)),
            np.array(list(map(read, chunks)), dtype=np.float64), lengths)
            for name, read in (("edge_seconds_pushed", _edge_seconds),
                               ("cloud_seconds_pushed", _cloud_seconds))}
        lan_totals = _left_folds([lan.link.total_seconds for lan in self.lans],
                                 replay.lan_seconds, lengths)
        for index, ((feeder, session, _), lan, start, count) in enumerate(
                zip(self.feeds, self.lans, starts, counts)):
            stop = start + count
            session.chunk_latencies.frombytes(latencies[start:stop].tobytes())
            if session.chunks_pushed == 0:
                session.first_arrival = firsts[index]
            session.last_push = lasts[index]
            session.chunks_pushed += count
            session.chunks_completed += count
            for name, sums in totals.items():
                setattr(session, name, getattr(session, name) + sums[index])
            for name, folded in folds.items():
                setattr(session, name, folded[index])
            session.last_completion = last_completions[index]
            feeder.next_index = len(feeder.chunks)
            # Closed at the last push, finalised at the last completion.
            session.close_reason = session.close_reason or "client"
            ingest.close_reasons[session.close_reason] = (
                ingest.close_reasons.get(session.close_reason, 0) + 1)
            ingest._finalise(session, session.last_completion)
            link = lan.link
            link.transfer_count += count
            link.total_bytes += totals["camera_edge_bytes_pushed"][index]
            link.total_seconds = lan_totals[index]

        # A session's chunks all cross its edge's uplink.
        wan_bytes = [0] * len(chain.wan_links)
        for (_, session, _), sent in zip(
                self.feeds, totals["edge_cloud_bytes_pushed"]):
            wan_bytes[session.edge_index] += sent
        for wan, count, sent, seconds in zip(
                chain.wan_links, replay.edge_jobs.tolist(), wan_bytes,
                _left_folds([wan.link.total_seconds for wan in chain.wan_links],
                            replay.wan_seconds[replay.delivered],
                            replay.edge_jobs)):
            link = wan.link
            link.transfer_count += count
            link.total_bytes += sent
            link.total_seconds = seconds

        fired = EVENTS_PER_JOB * len(chunks)
        # Every push but a feed's first was scheduled during the run.
        service.scheduler._fired_offline(
            fired - len(counts),
            float(until) if until is not None and until > self.last
            else self.last)
        return fired


def _run_sums(column: List[int], starts: List[int],
              counts: List[int]) -> List[int]:
    """The exact sum of each run of ``counts[i]`` consecutive values of
    ``column`` from ``starts[i]``, in Python's integers."""
    return [sum(column[start:start + count])
            for start, count in zip(starts, counts)]
