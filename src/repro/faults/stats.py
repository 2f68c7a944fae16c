"""Fault / recovery accounting and the diffable recovery trace.

:class:`FaultStats` is the counter block that rides on
:class:`~repro.cluster.fleet.FleetReport` and ``ServiceStatus``: the
faults a storm injected (edge crashes, WAN partitions, stream stalls) and
the recovery work they and backpressure caused (failovers, requeues,
watchdog closes, feeder retries, breaker trips).  It only appears when
something fault-related actually happened, so fault-free reports stay
bit-identical to the seed.

:class:`RecoveryTrace` is an append-only log of recovery decisions
(crash seen, session failed over, chunk requeued, breaker opened, …)
rendered as stable text lines: the chaos-soak contract is that the same
seed produces the *same trace*, under either clock driver, across
process restarts — CI diffs two runs' traces verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

_COUNTERS = (
    "crashes_seen", "edges_restarted", "wan_partitions", "stream_stalls",
    "sessions_relocated", "sessions_stalled", "chunks_failed_over",
    "chunks_dropped", "feeder_retries", "feeder_give_ups", "breaker_opens",
    "breaker_rejections",
)


@dataclass
class FaultStats:
    """Counters for injected faults and the recovery work they caused.

    Attributes:
        crashes_seen: Edge crashes injected (permanent or transient).
        edges_restarted: Transient crashes that came back.
        wan_partitions: WAN partition windows opened.
        stream_stalls: Camera stream stalls injected.
        sessions_relocated: Live sessions moved off a dead edge.
        sessions_stalled: Sessions the watchdog closed as stalled.
        chunks_failed_over: Chunk stage submissions requeued after a
            station failure.
        chunks_dropped: Chunks lost for good (no healthy edge remained).
        feeder_retries: Backpressure retries across all feeders.
        feeder_give_ups: Feeders that exhausted their retry budget.
        breaker_opens: Circuit-breaker open transitions.
        breaker_rejections: Pushes bounced by an open breaker or an
            offline edge.
        retry_histogram: ``{attempts: chunks}`` — how many consecutive
            backpressure failures chunks saw before succeeding (or
            giving up).
    """

    crashes_seen: int = 0
    edges_restarted: int = 0
    wan_partitions: int = 0
    stream_stalls: int = 0
    sessions_relocated: int = 0
    sessions_stalled: int = 0
    chunks_failed_over: int = 0
    chunks_dropped: int = 0
    feeder_retries: int = 0
    feeder_give_ups: int = 0
    breaker_opens: int = 0
    breaker_rejections: int = 0
    retry_histogram: Dict[int, int] = field(default_factory=dict)

    def observe_attempts(self, attempts: int, count: int = 1) -> None:
        """Fold ``count`` chunks that needed ``attempts`` retries in."""
        if attempts > 0 and count > 0:
            self.retry_histogram[attempts] = (
                self.retry_histogram.get(attempts, 0) + count)

    def has_activity(self) -> bool:
        """Whether anything fault-related happened at all."""
        return bool(self.retry_histogram) or any(
            getattr(self, name) for name in _COUNTERS)

    def as_dict(self) -> Dict[str, int]:
        """Flat metric dict (histogram buckets as ``retry_attempts_N``)."""
        metrics = {name: getattr(self, name) for name in _COUNTERS}
        for attempts in sorted(self.retry_histogram):
            metrics[f"retry_attempts_{attempts}"] = (
                self.retry_histogram[attempts])
        return metrics

    def mismatches(self, other: "FaultStats",
                   label: str = "faults") -> List[str]:
        """Counter-by-counter differences against ``other``."""
        mine, theirs = self.as_dict(), other.as_dict()
        return [f"{label}.{key}: {mine.get(key, 0)} != {theirs.get(key, 0)}"
                for key in sorted(set(mine) | set(theirs))
                if mine.get(key, 0) != theirs.get(key, 0)]


@dataclass(frozen=True)
class TraceEvent:
    """One recovery decision at one instant of virtual time."""

    time: float
    kind: str
    detail: str = ""

    def line(self) -> str:
        """The stable text rendering CI diffs."""
        return f"t={self.time:.6f} {self.kind} {self.detail}".rstrip()


class RecoveryTrace:
    """Append-only, deterministic log of recovery decisions."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def record(self, time: float, kind: str, detail: str = "") -> None:
        """Append one event."""
        self.events.append(TraceEvent(time=time, kind=kind, detail=detail))

    def lines(self) -> List[str]:
        """All events as stable text lines."""
        return [event.line() for event in self.events]

    def mismatches(self, other: "RecoveryTrace") -> List[str]:
        """Line-by-line differences against ``other``."""
        mine, theirs = self.lines(), other.lines()
        problems = []
        if len(mine) != len(theirs):
            problems.append(f"trace length {len(mine)} != {len(theirs)}")
        for index, (a, b) in enumerate(zip(mine, theirs)):
            if a != b:
                problems.append(f"trace[{index}]: {a!r} != {b!r}")
        return problems

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)
