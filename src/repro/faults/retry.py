"""Shared retry policy: exponential backoff with deterministic jitter.

Every retry loop in the codebase (the :class:`ChunkFeeder` backpressure
retries, requeue paths in the fault drivers) speaks this one policy so
budgets and backoff shapes are configured in a single place.  Jitter is
drawn from the seeded RNG tree (:mod:`repro.rng`) keyed by ``(seed,
"retry", key, attempt)`` — the same attempt of the same key always gets
the same jitter, so retries never break run-to-run determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..config import whole_number
from ..errors import FaultError
from ..rng import make_rng


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule plus a hard attempt budget.

    Attributes:
        max_attempts: Failures allowed before giving up (``exhausted``).
        base_delay_seconds: Delay after the first failure.
        multiplier: Per-attempt delay growth (1.0 = constant delay).
        max_delay_seconds: Backoff ceiling.
        jitter_fraction: Fraction of the delay randomised (0 disables
            jitter entirely — no RNG is ever constructed).
        seed: Root seed for the jitter draws (only used when jittering).
    """

    max_attempts: int = 8
    base_delay_seconds: float = 0.05
    multiplier: float = 2.0
    max_delay_seconds: float = 10.0
    jitter_fraction: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        try:
            self._check_fields()
        except TypeError as error:
            raise FaultError(f"malformed RetryPolicy value: {error}") from error

    def _check_fields(self) -> None:
        # The dataclass is frozen: a whole-number budget given as a float
        # is written back as an int once here.  A fractional or nan budget
        # is refused, since ``attempts >= nan`` never reports exhausted.
        object.__setattr__(self, "max_attempts", whole_number(
            self.max_attempts, "max_attempts", FaultError))
        if self.max_attempts < 1:
            raise FaultError("max_attempts must be >= 1")
        # Chained comparisons, so nan (which fails every comparison) and
        # inf are refused rather than becoming every retry's delay.
        if not 0.0 < self.base_delay_seconds < math.inf:
            raise FaultError("base_delay_seconds must be positive and finite")
        if not 1.0 <= self.multiplier < math.inf:
            raise FaultError("multiplier must be >= 1.0 and finite")
        if not self.base_delay_seconds <= self.max_delay_seconds < math.inf:
            raise FaultError(
                "max_delay_seconds must be finite and >= base delay")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise FaultError("jitter_fraction must be in [0, 1)")

    def exhausted(self, attempts: int) -> bool:
        """Whether ``attempts`` failures have used up the budget."""
        return attempts >= self.max_attempts

    def delay_seconds(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``key``.

        Deterministic: the same ``(seed, key, attempt)`` always yields
        the same delay, jittered or not.
        """
        if not attempt >= 1:
            raise FaultError("attempt is 1-based")
        delay = min(
            self.base_delay_seconds * self.multiplier ** (attempt - 1),
            self.max_delay_seconds)
        if self.jitter_fraction > 0.0:
            rng = make_rng(self.seed if self.seed is not None else 0,
                           "retry", key, str(attempt))
            delay *= 1.0 + self.jitter_fraction * float(rng.uniform(-1, 1))
        return delay

    @classmethod
    def constant(cls, delay_seconds: float,
                 max_attempts: int = 64) -> "RetryPolicy":
        """Fixed-period retries (the pre-fault-plane feeder behaviour,
        now with a finite budget)."""
        return cls(max_attempts=max_attempts,
                   base_delay_seconds=delay_seconds,
                   multiplier=1.0,
                   max_delay_seconds=delay_seconds)
