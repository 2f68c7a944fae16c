"""Deterministic fault injection and self-healing.

The fault plane is strictly opt-in: nothing in this package runs unless
a :class:`FaultPlan` (or a :class:`ResilienceConfig`) is handed to the
streaming service, and the injection hooks it exposes are no-ops by
default — the fault-free pipeline stays bit-identical to the seed (the
standing bitwise-stability contract).

Public surface:

* :class:`FaultPlan` and its specs — :class:`EdgeCrash` (permanent or
  with a restart), :class:`WanDegradation` (a full partition of one
  edge's uplink) and :class:`StreamStall` (one camera's uplink drops
  out) — composable, seeded, replayable.  These three kinds are all a
  storm injects.
* :class:`CircuitBreaker` / :class:`BreakerState` — per-edge load
  shedding.
* :class:`ResilienceConfig` — the service's self-healing knobs.
* :class:`FaultStats` / :class:`RecoveryTrace` — recovery accounting
  and the deterministic trace the chaos soak diffs.
"""

from .breaker import BreakerState, CircuitBreaker
from .injector import ResilienceConfig, ServiceFaultDriver
from .plan import EdgeCrash, FaultPlan, FaultSpec, StreamStall, WanDegradation
from .stats import FaultStats, RecoveryTrace, TraceEvent

__all__ = [
    "BreakerState", "CircuitBreaker", "ResilienceConfig",
    "ServiceFaultDriver", "EdgeCrash", "FaultPlan", "FaultSpec",
    "StreamStall", "WanDegradation", "FaultStats",
    "RecoveryTrace", "TraceEvent",
]
