"""Deterministic chunk feeders: simulated live cameras.

A :class:`ChunkFeeder` plays a pre-planned list of
:class:`~repro.service.session.FrameChunk` into an open session at a fixed
virtual period, the way a camera delivers one group of pictures per
interval.  Pushes that hit backpressure are retried under a
:class:`~repro.faults.retry.RetryPolicy` — bounded attempts, optional
exponential backoff — instead of being dropped *or* retried forever: a
feeder that exhausts its budget gives up and closes the session with
reason ``"backpressure"`` rather than livelocking the event loop against
a wedge that will never clear.  The session is closed normally when the
plan is exhausted.

Everything the feeder does is a control event on the service's scheduler
(:meth:`StreamingService.at` / :meth:`~StreamingService.after`), so a fed
workload is bit-identical under the virtual and real-time clock drivers —
the property the parity tests and ``examples/streaming_service.py`` pin.
"""

from __future__ import annotations

from math import inf
from typing import Dict, Optional, Sequence

from ..errors import BackpressureError, ServiceError
from ..faults.retry import RetryPolicy
from .session import FrameChunk


class ChunkFeeder:
    """Push a chunk plan into one session at a fixed virtual period.

    Args:
        service: The owning :class:`~repro.service.service.StreamingService`.
        session_id: Target session (must be open when pushes fire).
        chunks: The chunk plan, pushed in order.
        period_seconds: Virtual seconds between consecutive pushes.
        retry_seconds: Back-off before retrying a push that hit
            backpressure (default: a quarter period).  Ignored when
            ``retry_policy`` is given.
        close_when_done: Close the session after the last chunk is pushed.
        retry_policy: Full backoff/budget control.  The default is
            ``RetryPolicy.constant(retry_seconds, max_attempts=64)`` —
            the historical fixed-period cadence, now with a finite
            budget so a permanently wedged session cannot spin the
            feeder forever.

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
                 chunks: Sequence[FrameChunk], period_seconds: float,
                 retry_seconds: Optional[float] = None,
                 close_when_done: bool = True,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        # Chained comparisons: nan passes ``<= 0`` and would drain the
        # feeder with the service clock at nan.
        if not 0 < period_seconds < inf:
            raise ServiceError(
                f"period_seconds must be positive and finite, "
                f"got {period_seconds}")
        if retry_seconds is not None and not 0 < retry_seconds < inf:
            raise ServiceError(
                f"retry_seconds must be positive and finite, "
                f"got {retry_seconds}")
        self._service = service
        self.session_id = session_id
        self.chunks = list(chunks)
        self.period_seconds = float(period_seconds)
        self.retry_seconds = (float(retry_seconds) if retry_seconds is not None
                              else self.period_seconds / 4.0)
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy.constant(self.retry_seconds,
                                                       max_attempts=64))
        self.close_when_done = close_when_done
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
        self._started = True
        if not self.chunks:
            self._maybe_close()
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
            # it — until the policy's attempt budget runs out.
            self._attempts += 1
            self.retries += 1
            if self.retry_policy.exhausted(self._attempts):
                self._give_up()
                return
            delay = self.retry_policy.delay_seconds(
                self._attempts, key=f"{self.session_id}:{self.next_index}")
            self._service.after(delay, self._push)
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
            self._maybe_close()
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

    def _maybe_close(self) -> None:
        if self.close_when_done:
            self._service.close_session(self.session_id)
