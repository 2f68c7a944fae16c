"""Low-overhead wall-clock section timers.

Design constraints:

* instrumenting a hot path must cost two ``perf_counter_ns`` calls and one
  dict update per section — no object churn, no logging;
* the instrumentation must be easy to ignore: everything funnels into a
  module-global :class:`PerfRecorder` that callers may simply never read,
  and :func:`section` is usable as a context manager around any block.

The recorder is intentionally *not* thread-safe: the simulators are
single-threaded and the benchmarks want the cheapest possible probe.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass
class SectionStats:
    """Accumulated timing of one named section.

    Attributes:
        calls: Number of times the section was entered.
        total_seconds: Total wall-clock time spent inside the section.
        min_seconds: Fastest single visit.
        max_seconds: Slowest single visit.
    """

    calls: int = 0
    total_seconds: float = 0.0
    min_seconds: float = float("inf")
    max_seconds: float = 0.0

    def add(self, seconds: float) -> None:
        """Fold one visit of ``seconds`` into the stats."""
        self.calls += 1
        self.total_seconds += seconds
        if seconds < self.min_seconds:
            self.min_seconds = seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    @property
    def mean_seconds(self) -> float:
        """Average time per visit."""
        return self.total_seconds / self.calls if self.calls else 0.0


class Stopwatch:
    """A restartable wall-clock stopwatch.

    >>> watch = Stopwatch().start()
    >>> elapsed = watch.stop()      # seconds since start()
    >>> with Stopwatch() as watch:  # or as a context manager
    ...     pass
    >>> watch.elapsed_seconds >= 0.0
    True
    """

    __slots__ = ("_start_ns", "elapsed_seconds")

    def __init__(self) -> None:
        self._start_ns: Optional[int] = None
        self.elapsed_seconds = 0.0

    def start(self) -> "Stopwatch":
        """Start (or restart) the stopwatch."""
        self._start_ns = time.perf_counter_ns()
        return self

    def stop(self) -> float:
        """Stop and return the elapsed seconds since the last ``start``."""
        if self._start_ns is None:
            raise RuntimeError("stopwatch was never started")
        self.elapsed_seconds = (time.perf_counter_ns() - self._start_ns) / 1e9
        self._start_ns = None
        return self.elapsed_seconds

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


@dataclass
class PerfRecorder:
    """Collects section timings for one run.

    Attributes:
        sections: ``name -> SectionStats``.
    """

    sections: Dict[str, SectionStats] = field(default_factory=dict)

    def add_section_time(self, name: str, seconds: float) -> None:
        """Fold ``seconds`` into the section called ``name``."""
        stats = self.sections.get(name)
        if stats is None:
            stats = self.sections[name] = SectionStats()
        stats.add(seconds)

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Time the enclosed block under ``name``."""
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.add_section_time(name, (time.perf_counter_ns() - start) / 1e9)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Flat numeric view of every section (for reports and tests)."""
        return {
            name: {
                "calls": float(stats.calls),
                "total_seconds": stats.total_seconds,
                "mean_seconds": stats.mean_seconds,
                "min_seconds": stats.min_seconds if stats.calls else 0.0,
                "max_seconds": stats.max_seconds,
            }
            for name, stats in self.sections.items()
        }


#: Module-global recorder the engines and harnesses report into by default.
_GLOBAL_RECORDER = PerfRecorder()


def get_recorder() -> PerfRecorder:
    """The module-global :class:`PerfRecorder`."""
    return _GLOBAL_RECORDER


def section(name: str):
    """Context manager timing a block under ``name`` on the global recorder."""
    return _GLOBAL_RECORDER.section(name)
