"""Deterministic chunk feeders: simulated live cameras.

A :class:`ChunkFeeder` plays a pre-planned list of
:class:`~repro.service.session.FrameChunk` into an open session at a fixed
virtual period, the way a camera delivers one group of pictures per
interval.  A push that hits backpressure is retried a quarter period
later, up to :data:`RETRY_ATTEMPTS` consecutive refusals, instead of being
dropped *or* retried forever: a feeder that exhausts its budget gives up
and closes the session with reason ``"backpressure"`` rather than
livelocking the event loop against a wedge that will never clear.  The
session is closed normally when the plan is exhausted.

Everything the feeder does is a control event on the service's scheduler
(:meth:`StreamingService.at` / :meth:`~StreamingService.after`), so a fed
workload is bit-identical under the virtual and real-time clock drivers —
the property the parity tests and ``examples/streaming_service.py`` pin.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import FINITE, POSITIVE, real_number
from ..errors import BackpressureError, ServiceError
from .session import FrameChunk

#: Consecutive backpressure refusals of one chunk before the feeder gives
#: up on its session.
RETRY_ATTEMPTS = 64
#: The retry delay, as a fraction of the push period.
RETRY_PERIOD_FRACTION = 0.25


class ChunkFeeder:
    """Push a chunk plan into one session at a fixed virtual period.

    Args:
        service: The owning :class:`~repro.service.service.StreamingService`.
        session_id: Target session (must be open when pushes fire).
        chunks: The chunk plan, pushed in order.
        period_seconds: Virtual seconds between consecutive pushes.

    Attributes:
        retries: Pushes that hit backpressure and were rescheduled.
        gave_up: Whether the retry budget ran out on some chunk (the
            session was then closed with reason ``"backpressure"``).
        halted: Whether the session was closed out from under the feeder
            (stall watchdog, edge loss) and feeding stopped.
        attempt_histogram: ``{consecutive failures: chunks}`` observed
            before a chunk finally got through (or the feeder gave up).
    """

    def __init__(self, service, session_id: str,
                 chunks: Sequence[FrameChunk], period_seconds: float
                 ) -> None:
        real_number(period_seconds, "period_seconds", ServiceError, **POSITIVE)
        self._service = service
        self.session_id = session_id
        self.chunks = list(chunks)
        self.period_seconds = float(period_seconds)
        #: Index of the next chunk to push.
        self.next_index = 0
        #: Pushes that hit backpressure and were rescheduled.
        self.retries = 0
        self.gave_up = False
        self.halted = False
        self.attempt_histogram: Dict[int, int] = {}
        #: Consecutive backpressure failures of the chunk at ``next_index``.
        self._attempts = 0
        self._started = False
        register = getattr(service, "_register_feeder", None)
        if register is not None:
            register(self)

    @property
    def done(self) -> bool:
        """Whether every chunk in the plan has been pushed."""
        return self.next_index >= len(self.chunks)

    def start(self, at: Optional[float] = None) -> "ChunkFeeder":
        """Schedule the first push (``at`` absolute time, default: now)."""
        if self._started:
            raise ServiceError(
                f"feeder for {self.session_id!r} already started")
        if at is not None:
            real_number(at, "at", ServiceError, **FINITE)
        self._started = True
        if not self.chunks:
            self._service.close_session(self.session_id)
            return self
        if at is None:
            at = self._service.scheduler.now
        self._service.at(at, self._push)
        return self

    def _push(self) -> None:
        chunks = self.chunks
        if self.next_index >= len(chunks):
            return  # pragma: no cover - defensive; _push stops at the end.
        try:
            self._service.push_frames(self.session_id,
                                      chunks[self.next_index])
        except BackpressureError:
            # Push back: retry the same chunk later instead of dropping
            # it — until the attempt budget runs out.
            self._attempts += 1
            self.retries += 1
            if self._attempts >= RETRY_ATTEMPTS:
                self._give_up()
                return
            self._service.after(self.period_seconds * RETRY_PERIOD_FRACTION,
                                self._push)
            return
        except ServiceError:
            # The session was closed out from under us (stall watchdog,
            # edge loss): stop feeding instead of erroring the event loop.
            self.halted = True
            self._observe_attempts()
            return
        if self._attempts:
            self._observe_attempts()
        self.next_index += 1
        if self.next_index >= len(chunks):
            self._service.close_session(self.session_id)
        else:
            self._service.after(self.period_seconds, self._push)

    def _observe_attempts(self) -> None:
        if self._attempts:
            self.attempt_histogram[self._attempts] = (
                self.attempt_histogram.get(self._attempts, 0) + 1)
            self._attempts = 0

    def _give_up(self) -> None:
        """The backpressure never cleared: close with a reason, stop."""
        self.gave_up = True
        self.attempt_histogram[self._attempts] = (
            self.attempt_histogram.get(self._attempts, 0) + 1)
        self._attempts = 0
        self._service.close_session(self.session_id, reason="backpressure")
