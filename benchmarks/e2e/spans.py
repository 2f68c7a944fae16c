"""In-memory span recorder for the benchmark's traced pass.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions; nothing under ``src/`` knows about them.
A span carries a name, start, end, the span that caused it (``parent``)
and the identifier of the operation it belongs to (``op``).  Spans stay in
memory and are written out by the driver when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Records nested spans; a layer's self time excludes its children."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        """Record the enclosed block as a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "op": op, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        durations = [span["end"] - span["start"] for span in self.spans]
        own = list(durations)
        for span, duration in zip(self.spans, durations):
            if span["parent"] is not None:
                own[span["parent"]] -= duration
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
        return totals


class NullTracer:
    """The untraced run's stand-in: same call shape, records nothing."""

    spans: List[dict] = []

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        yield

    def self_seconds(self) -> Dict[str, float]:
        return {}
