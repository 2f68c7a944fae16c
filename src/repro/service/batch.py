"""A feeder-fed service run as one batch through the fleet's recurrence.

:meth:`StreamingService.run <repro.service.service.StreamingService.run>`
hands a run here when the event loop would do nothing but fire
:class:`~repro.service.feeder.ChunkFeeder` pushes into an idle chain.
:class:`FeederBatch` lays every remaining push out as one column of
chunks, computes their timelines with
:func:`~repro.cluster.recurrence.replay_fleet` (the fault-free fleet's
recurrence, with a LAN link per session and each push inserted by the one
before it), checks every push against the bounds ``push_frames`` would
apply at its instant, and then writes the run into the live stations,
links, sessions and feeders exactly as the event loop leaves them.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from functools import reduce
from itertools import accumulate, repeat
from operator import add, attrgetter
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ..cluster.recurrence import EVENTS_PER_JOB, _left_fold, replay_fleet
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
            self.chunks, self.edges(), self._push_instants(), service.config,
            service.num_edge_servers, service.edge_workers,
            service.cloud_workers,
            lan_keys=np.frombuffer(self.keys, dtype=np.intc),
            lan_links=[lan.link for lan in self.lans], chained_ingests=True,
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

    def edges(self) -> np.ndarray:
        """Every chunk's edge."""
        return np.repeat([session.edge_index for _, session, _ in self.feeds],
                         self.counts)

    def admitted(self, until: Optional[float]) -> bool:
        """Whether the run ends by ``until`` and every push passes the
        checks ``push_frames`` makes at its instant."""
        return ((until is None or self.last <= until)
                and self._within_pending_bounds()
                and self._within_wan_bound())

    def _within_pending_bounds(self) -> bool:
        """Each push finds fewer than ``max_pending_chunks`` of its
        session's chunks in flight."""
        instants = self.replay.instants
        fires_before = self.replay.fires_before
        ends, pushes = instants[_CLOUD_END], instants[_PUSH]
        start = 0
        for (_, session, _), count in zip(self.feeds, self.counts):
            bound = session.max_pending_chunks
            if count > bound:
                # Push k is admitted when chunks 0 .. k - bound all ended
                # before its instant; the rest are counted event by event.
                ended = np.maximum.accumulate(
                    ends[start:start + count - bound])
                doubtful = np.flatnonzero(
                    ended >= pushes[start + bound:start + count]) + bound
                for k in doubtful.tolist():
                    push = EVENTS_PER_JOB * (start + k)
                    completed = sum([fires_before(
                        EVENTS_PER_JOB * (start + i) + _CLOUD_END, push)
                        for i in range(k)])
                    if k - completed >= bound:
                        return False
            start += count
        return True

    def _within_wan_bound(self) -> bool:
        """Each push finds its edge's WAN queue below
        ``max_wan_queue_depth``: a transfer waits from its admission (its
        edge completion) until the delivery that starts it, unless it
        started at once."""
        bound = self.service.ingest.max_wan_queue_depth
        if bound is None:
            return True
        replay = self.replay
        instants = replay.instants
        # Event ``e`` (of job ``e // EVENTS_PER_JOB``) fired at ``at[e]``.
        at = instants.T.ravel()
        edges = self.edges()
        delivered = np.split(replay.delivered,
                             np.cumsum(replay.edge_jobs)[:-1])
        for edge, order in enumerate(delivered):
            pushed = np.flatnonzero(edges == edge)
            if not len(order) or not len(pushed):
                continue
            transfers = EVENTS_PER_JOB * order + _WAN_END
            starts = np.array([replay.started_by(event)
                               for event in transfers.tolist()])
            waited = starts != transfers - 1
            joined, left = transfers[waited] - 1, starts[waited]
            # At most this many wait at each push (ties counted waiting).
            times = instants[_PUSH, pushed]
            upper = (np.searchsorted(np.sort(at[joined]), times, "right")
                     - np.searchsorted(np.sort(at[left]), times, "left"))
            for job in pushed[upper >= bound].tolist():
                push = EVENTS_PER_JOB * job
                waiting = (sum([replay.fires_before(event, push)
                                for event in joined.tolist()])
                           - sum([replay.fires_before(event, push)
                                  for event in left.tolist()]))
                if waiting >= bound:
                    return False
        return True

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
        # Drop the event graph before anything is written.
        replay = self.replay._replace(fires_before=None, started_by=None)
        self.replay = None
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
        folds = (("edge_seconds_pushed", list(map(_edge_seconds, chunks))),
                 ("cloud_seconds_pushed", list(map(_cloud_seconds, chunks))))
        lan_seconds = replay.lan_seconds
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
            for name, column in folds:
                setattr(session, name, reduce(add, column[start:stop],
                                              getattr(session, name)))
            session.last_completion = last_completions[index]
            feeder.next_index = len(feeder.chunks)
            if feeder.close_when_done:
                # Closed at the last push, finalised at the last completion.
                session.close_reason = session.close_reason or "client"
                ingest.close_reasons[session.close_reason] = (
                    ingest.close_reasons.get(session.close_reason, 0) + 1)
                ingest._finalise(session, session.last_completion)
            # Each link's seconds are folded in delivery order, as its
            # transfers would add them: a session's LAN link delivers in
            # push order, each WAN link (below) in its replayed order.
            link = lan.link
            link.transfer_count += count
            link.total_bytes += totals["camera_edge_bytes_pushed"][index]
            link.total_seconds = reduce(add, lan_seconds[start:stop].tolist(),
                                        link.total_seconds)

        # A session's chunks all cross its edge's uplink.
        wan_bytes = [0] * len(chain.wan_links)
        for (_, session, _), sent in zip(
                self.feeds, totals["edge_cloud_bytes_pushed"]):
            wan_bytes[session.edge_index] += sent
        for wan, start, count, sent in zip(
                chain.wan_links,
                accumulate(replay.edge_jobs.tolist(), initial=0),
                replay.edge_jobs.tolist(), wan_bytes):
            link = wan.link
            link.transfer_count += count
            link.total_bytes += sent
            link.total_seconds = _left_fold(replay.wan_seconds[
                replay.delivered[start:start + count]], link.total_seconds)

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
