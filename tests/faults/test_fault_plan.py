"""Unit tests for the fault-plane primitives.

Covers the plain-data layer underneath the injection drivers: fault
specs and :class:`FaultPlan` (validation, seeded draws, composition),
the per-edge :class:`CircuitBreaker` state machine, and the :class:`FaultStats` / :class:`RecoveryTrace`
accounting the chaos-soak contract diffs.
"""

from __future__ import annotations

import pytest

from repro.errors import FaultError
from repro.faults import (BreakerState, CircuitBreaker, EdgeCrash, FaultPlan,
                          FaultStats, RecoveryTrace, ResilienceConfig,
                          StreamStall, WanDegradation)

NAN = float("nan")
INF = float("inf")


class TestResilienceConfig:
    @pytest.mark.parametrize("kwargs", [
        {"breaker_cooldown_seconds": 0.0},
        {"breaker_cooldown_seconds": NAN},
        {"breaker_cooldown_seconds": INF},
        {"stall_timeout_seconds": 0.0},
        {"stall_timeout_seconds": NAN},
        {"stall_timeout_seconds": INF},
        {"watchdog_period_seconds": 0.0},
        {"watchdog_period_seconds": NAN},
        {"watchdog_period_seconds": INF},
        {"watchdog_period_seconds": "1"},
        {"breaker_cooldown_seconds": True},
        {"stall_timeout_seconds": True},
        {"watchdog_period_seconds": True},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        """A bool is no number of seconds: ``True`` used to be taken as 1."""
        with pytest.raises(FaultError):
            ResilienceConfig(**kwargs)


class TestCircuitBreaker:
    def test_trip_opens_and_sheds(self):
        breaker = CircuitBreaker("edge:0", cooldown_seconds=5.0)
        assert breaker.allow(0.5)
        breaker.trip(3.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1
        assert not breaker.allow(3.5)

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(cooldown_seconds=2.0)
        breaker.trip(0.0)
        assert not breaker.allow(1.9)          # still cooling down
        assert breaker.allow(2.5)              # the probe slot
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow(2.6)          # probe already in flight
        breaker.record_success(3.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(3.1)

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(cooldown_seconds=1.0)
        breaker.trip(0.0)
        assert breaker.allow(1.5)
        breaker.trip(1.6)  # the edge went down again under the probe
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_at == 1.6
        assert breaker.opens == 2

    def test_retrip_restarts_cooldown_without_recounting(self):
        opened = []
        breaker = CircuitBreaker(cooldown_seconds=1.0,
                                 on_open=lambda: opened.append(True))
        breaker.trip(0.0)
        breaker.trip(0.5)
        assert breaker.opens == 1
        assert len(opened) == 1
        assert breaker.opened_at == 0.5
        assert not breaker.allow(1.2)  # cooldown restarted at 0.5

    @pytest.mark.parametrize("cooldown", [0.0, -1.0, NAN, INF, "x", None,
                                          True])
    def test_invalid_configs_rejected(self, cooldown):
        with pytest.raises(FaultError):
            CircuitBreaker(cooldown_seconds=cooldown)


class TestFaultSpecs:
    def test_spec_validation(self):
        with pytest.raises(FaultError):
            EdgeCrash(edge_index=-1, at_seconds=1.0)
        with pytest.raises(FaultError):
            EdgeCrash(edge_index=0, at_seconds=1.0,
                      restart_after_seconds=0.0)
        with pytest.raises(FaultError):
            WanDegradation(edge_index=0, at_seconds=1.0,
                           duration_seconds=0.0)
        with pytest.raises(FaultError):
            StreamStall(camera="", at_seconds=1.0, duration_seconds=1.0)

    @pytest.mark.parametrize("spec,kwargs", [
        (EdgeCrash, {"edge_index": "0"}),
        (EdgeCrash, {"edge_index": 1.5}),
        (EdgeCrash, {"edge_index": True}),
        (EdgeCrash, {"edge_index": None}),
        (EdgeCrash, {"edge_index": NAN}),
        (EdgeCrash, {"at_seconds": None}),
        (EdgeCrash, {"at_seconds": "1"}),
        (EdgeCrash, {"at_seconds": INF}),
        (EdgeCrash, {"at_seconds": NAN}),
        (EdgeCrash, {"restart_after_seconds": INF}),
        (EdgeCrash, {"restart_after_seconds": "2"}),
        (WanDegradation, {"edge_index": False}),
        (WanDegradation, {"at_seconds": INF}),
        (WanDegradation, {"duration_seconds": INF}),
        (WanDegradation, {"duration_seconds": None}),
        (StreamStall, {"camera": 5}),
        (StreamStall, {"camera": None}),
        (StreamStall, {"duration_seconds": INF}),
        (FaultPlan, {"specs": None}),
        (FaultPlan, {"specs": 7}),
        (FaultPlan, {"specs": "spec"}),
    ], ids=lambda value: (value.__name__ if isinstance(value, type)
                          else "-".join(f"{k}={v!r}" for k, v in value.items())))
    def test_malformed_fields_raise_fault_error_at_construction(self, spec,
                                                                kwargs):
        """Each of these raised a bare TypeError, or was accepted and
        failed later (in a drain or in the scheduler), before the specs
        checked their field types."""
        valid = {EdgeCrash: {"edge_index": 0, "at_seconds": 1.0},
                 WanDegradation: {"edge_index": 0, "at_seconds": 1.0,
                                  "duration_seconds": 1.0},
                 StreamStall: {"camera": "cam", "at_seconds": 1.0,
                               "duration_seconds": 1.0},
                 FaultPlan: {}}[spec]
        spec(**valid)
        with pytest.raises(FaultError):
            spec(**{**valid, **kwargs})

    def test_whole_number_edge_index_is_normalised(self):
        crash = EdgeCrash(edge_index=2.0, at_seconds=1)
        assert crash.edge_index == 2 and type(crash.edge_index) is int
        assert crash == EdgeCrash(edge_index=2, at_seconds=1)

    def test_permanence_flag(self):
        assert EdgeCrash(edge_index=0, at_seconds=1.0).permanent
        assert not EdgeCrash(edge_index=0, at_seconds=1.0,
                             restart_after_seconds=2.0).permanent


class TestFaultPlan:
    def test_properties_are_time_ordered(self):
        plan = FaultPlan(specs=(
            EdgeCrash(edge_index=1, at_seconds=5.0),
            WanDegradation(edge_index=0, at_seconds=3.0,
                           duration_seconds=1.0),
            EdgeCrash(edge_index=0, at_seconds=1.0,
                      restart_after_seconds=0.5),
        ))
        assert [crash.at_seconds for crash in plan.edge_crashes] == [1.0, 5.0]
        assert [window.at_seconds for window in plan.wan_degradations] == [3.0]
        assert plan.stream_stalls == ()

    def test_validate_for_rejects_out_of_range_targets(self):
        plan = FaultPlan(specs=(EdgeCrash(edge_index=4, at_seconds=1.0),))
        with pytest.raises(FaultError):
            plan.validate_for(2)
        plan.validate_for(5)

    def test_validate_for_requires_a_survivor(self):
        doomed = FaultPlan(specs=(
            EdgeCrash(edge_index=0, at_seconds=1.0),
            EdgeCrash(edge_index=1, at_seconds=2.0),
        ))
        with pytest.raises(FaultError):
            doomed.validate_for(2)
        doomed.validate_for(3)  # one survivor is enough

    def test_unknown_specs_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(specs=("not a spec",))  # type: ignore[arg-type]

    def test_seeded_plans_are_reproducible(self):
        kwargs = dict(num_edge_servers=4, cameras=("cam-a", "cam-b"),
                      horizon_seconds=12.0)
        assert (FaultPlan.seeded(7, **kwargs)
                == FaultPlan.seeded(7, **kwargs))
        assert (FaultPlan.seeded(7, **kwargs)
                != FaultPlan.seeded(8, **kwargs))

    def test_seeded_plan_shape(self):
        plan = FaultPlan.seeded(3, num_edge_servers=4,
                                cameras=("cam-a", "cam-b"),
                                horizon_seconds=10.0)
        crashes = plan.edge_crashes
        assert len(crashes) == 2
        # Crash targets are distinct edges; permanence alternates.
        assert len({crash.edge_index for crash in crashes}) == 2
        assert sorted(crash.permanent for crash in crashes) == [False, True]
        assert len(plan.wan_degradations) == 1
        assert len(plan.stream_stalls) == 1
        assert plan.stream_stalls[0].camera in ("cam-a", "cam-b")
        assert len(plan.specs) == 4
        for spec in plan.specs:
            at = getattr(spec, "at_seconds", 0.0)
            assert 0.0 <= at <= 10.0

    def test_seeded_needs_a_surviving_edge(self):
        """Its two crashes need a third edge to survive them."""
        with pytest.raises(FaultError):
            FaultPlan.seeded(1, num_edge_servers=2)
        FaultPlan.seeded(1, num_edge_servers=3)

    @pytest.mark.parametrize("kwargs", [
        {"num_edge_servers": 2.5},
        {"num_edge_servers": "3"},
        {"num_edge_servers": 0},
        {"horizon_seconds": INF},
        {"horizon_seconds": None},
    ], ids=lambda kwargs: "-".join(f"{k}={v!r}" for k, v in kwargs.items()))
    def test_seeded_refuses_malformed_arguments(self, kwargs):
        """``num_edge_servers=2.5`` raised numpy's AxisError."""
        arguments = dict(num_edge_servers=3, cameras=("cam-a",),
                         horizon_seconds=10.0)
        arguments.update(kwargs)
        with pytest.raises(FaultError):
            FaultPlan.seeded(7, **arguments)

    def test_seeded_plan_is_pinned(self):
        """Dropping the worker-kill draw (the last one) and checking the
        arguments moved no spec of a valid seeded plan."""
        plan = FaultPlan.seeded(7, num_edge_servers=3,
                                cameras=("cam-0", "cam-1", "cam-2"),
                                horizon_seconds=13.0)
        assert plan.specs == (
            EdgeCrash(1, 3.5207517315533683),
            EdgeCrash(0, 1.7252108849607188, 2.5728784404957876),
            WanDegradation(0, 1.6184362446049367, 1.4658336660384683),
            StreamStall("cam-0", 2.008566619767799, 5.036212272321967))
        assert FaultPlan.seeded(7, num_edge_servers=3.0,
                                cameras=("cam-0", "cam-1", "cam-2"),
                                horizon_seconds=13) == plan


class TestFaultStats:
    def test_has_activity(self):
        stats = FaultStats()
        assert not stats.has_activity()
        stats.crashes_seen = 1
        assert stats.has_activity()
        histogram_only = FaultStats()
        histogram_only.observe_attempts(3)
        assert histogram_only.has_activity()

    def test_as_dict_flattens_the_histogram(self):
        stats = FaultStats(breaker_opens=2)
        stats.observe_attempts(1, count=4)
        stats.observe_attempts(5)
        flat = stats.as_dict()
        assert flat["breaker_opens"] == 2
        assert flat["retry_attempts_1"] == 4
        assert flat["retry_attempts_5"] == 1

    def test_mismatches_are_symmetric_on_keys(self):
        a = FaultStats(crashes_seen=2)
        b = FaultStats()
        b.observe_attempts(2)
        problems = a.mismatches(b)
        assert "faults.crashes_seen: 2 != 0" in problems
        assert "faults.retry_attempts_2: 0 != 1" in problems
        assert a.mismatches(FaultStats(crashes_seen=2)) == []


class TestRecoveryTrace:
    def test_lines_are_stable(self):
        trace = RecoveryTrace()
        trace.record(1.25, "edge-crash", "edge=1 permanent")
        trace.record(2.0, "tick")
        assert trace.lines() == ["t=1.250000 edge-crash edge=1 permanent",
                                 "t=2.000000 tick"]
        assert [event.kind for event in trace] == ["edge-crash", "tick"]
        assert len(trace) == 2

    def test_mismatches(self):
        a, b = RecoveryTrace(), RecoveryTrace()
        a.record(1.0, "edge-crash", "edge=0")
        b.record(1.0, "edge-crash", "edge=1")
        b.record(2.0, "edge-restart", "edge=1")
        problems = a.mismatches(b)
        assert any("length" in problem for problem in problems)
        assert any("trace[0]" in problem for problem in problems)
        assert a.mismatches(a) == []
