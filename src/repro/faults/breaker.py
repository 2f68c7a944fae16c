"""Per-edge circuit breakers.

A :class:`CircuitBreaker` guards one edge server.  It opens when the edge
is known to be down (:meth:`CircuitBreaker.trip`, called by the fault
driver when the edge crashes) and sheds load: pushes bounce as
backpressure instead of queueing onto a sick edge.  After
``cooldown_seconds`` it half-opens and admits exactly one probe; a
completed chunk closes it, and another trip re-opens it and restarts the
cooldown.

Time is whatever clock the caller passes in (virtual seconds here), so
breaker transitions are part of the deterministic event sequence and
show up identically in same-seed recovery traces.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Optional

from ..config import real_number
from ..errors import FaultError


class BreakerState(enum.Enum):
    """The classic three breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Trip-opened breaker with half-open probes.

    Attributes:
        state: Current :class:`BreakerState`.
        opened_at: Time of the most recent open (``nan`` before any).
        opens: CLOSED/HALF_OPEN -> OPEN transitions seen.
    """

    def __init__(self, name: str = "", cooldown_seconds: float = 5.0,
                 on_open: Optional[Callable[[], None]] = None) -> None:
        # Chained, so nan (which would admit a probe the instant the
        # breaker trips) and inf are refused.
        if not 0.0 < real_number(cooldown_seconds, "cooldown_seconds",
                                 FaultError) < math.inf:
            raise FaultError("cooldown_seconds must be positive and finite")
        self.name = name
        self.cooldown_seconds = cooldown_seconds
        self.state = BreakerState.CLOSED
        self.opened_at = float("nan")
        self.opens = 0
        self._on_open = on_open
        self._probe_in_flight = False

    def allow(self, now: float) -> bool:
        """Whether a request may proceed at ``now``.

        An OPEN breaker past its cooldown half-opens and admits exactly
        one probe; further requests bounce until the probe settles.
        Callers must only invoke this when the request will actually be
        issued on ``True`` (the probe slot is claimed by this call).
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self.opened_at < self.cooldown_seconds:
                return False
            self.state = BreakerState.HALF_OPEN
            self._probe_in_flight = False
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        return True

    def record_success(self, now: float = 0.0) -> None:
        """A request succeeded: close."""
        self.state = BreakerState.CLOSED
        self._probe_in_flight = False

    def trip(self, now: float) -> None:
        """Force the breaker open (e.g. the edge is known dead).

        Re-tripping an already-open breaker restarts its cooldown but
        does not count another open.
        """
        if self.state is not BreakerState.OPEN:
            self.opens += 1
            if self._on_open is not None:
                self._on_open()
        self.state = BreakerState.OPEN
        self.opened_at = now
        self._probe_in_flight = False
