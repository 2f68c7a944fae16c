"""Serving-path options that no example, benchmark or CI run set are gone.

Each was deleted with its default behaviour kept as the one behaviour:
the WAN-queue admission bound, the stage-start hook, the feeder's retry
settings and ``RetryPolicy``, per-tenant LAN sizing, the health-history
length, the degraded tenant tier, WAN slowdown windows, multi-channel
links, the feeder's ``close_when_done``, the seeded storm's fault counts
and the always-zero ``jobs_failed_over`` counter.  A deleted option is
refused by name and a deleted attribute is absent, so putting one back is
a visible change to this file.
"""

from __future__ import annotations

import importlib
import json

import pytest

import repro.faults
from repro.cluster.topology import StageChain
from repro.config import SystemConfig
from repro.dataflow.scheduler import EventScheduler, ServiceStation
from repro.errors import AdmissionError
from repro.faults import FaultPlan, FaultStats, WanDegradation
from repro.faults.injector import ServiceFaultDriver
from repro.net.contention import ContendedLink
from repro.net.link import NetworkLink
from repro.service import (ChunkFeeder, ServiceStatus, StreamingService,
                           TenantPolicy)
from repro.service.ingest import StreamIngest


def ingest(**option):
    return StreamIngest(EventScheduler(), 1, lambda session: None,
                        lambda session, chunk: None, **option)


def feeder(**option):
    return ChunkFeeder(StreamingService(), "cam", [], period_seconds=1.0,
                       **option)


def chain(**option):
    return StageChain(EventScheduler(), SystemConfig(), range(1), **option)


def link(**option):
    return ContendedLink(EventScheduler(), NetworkLink("l", 10.0), **option)


def seeded(**option):
    return FaultPlan.seeded(7, num_edge_servers=3, **option)


@pytest.mark.parametrize("make, name", [
    (lambda: StreamingService(max_wan_queue_depth=1), "max_wan_queue_depth"),
    (lambda: StreamingService(health_history_limit=8),
     "health_history_limit"),
    (lambda: ingest(max_wan_queue_depth=1), "max_wan_queue_depth"),
    (lambda: ingest(wan_queue_depth=lambda edge: 0), "wan_queue_depth"),
    (lambda: feeder(retry_seconds=0.25), "retry_seconds"),
    (lambda: feeder(retry_policy=None), "retry_policy"),
    (lambda: TenantPolicy("t", config=SystemConfig()), "config"),
    (lambda: chain(on_stage_start=lambda unit: None), "on_stage_start"),
    (lambda: chain().add_lan_link("cam", "lan", SystemConfig()),
     "add_lan_link"),
    (lambda: ServiceStation(EventScheduler(), "s").submit(
        1.0, on_start=lambda payload: None), "on_start"),
    (lambda: link().submit(1_000, on_start=lambda payload: None),
     "on_start"),
    (lambda: StreamingService(degraded_tenant=TenantPolicy("shed")),
     "degraded_tenant"),
    (lambda: ingest(degraded_tenant=TenantPolicy("shed")),
     "degraded_tenant"),
    (lambda: WanDegradation(0, 1.0, 1.0, bandwidth_factor=0.5),
     "bandwidth_factor"),
    (lambda: link(channels=2), "channels"),
    (lambda: feeder(close_when_done=False), "close_when_done"),
    (lambda: seeded(num_edge_crashes=1), "num_edge_crashes"),
    (lambda: seeded(num_wan_partitions=0), "num_wan_partitions"),
    (lambda: seeded(num_stream_stalls=0), "num_stream_stalls"),
    (lambda: FaultStats(jobs_failed_over=0), "jobs_failed_over"),
    (lambda: FaultStats(sessions_degraded=0), "sessions_degraded"),
], ids=["service-wan-bound", "service-history-limit", "ingest-wan-bound",
        "ingest-wan-depth", "feeder-retry-seconds", "feeder-retry-policy",
        "tenant-config", "chain-stage-start", "lan-link-config",
        "station-on-start", "link-on-start", "service-degraded-tenant",
        "ingest-degraded-tenant", "wan-bandwidth-factor", "link-channels", "feeder-close-when-done",
        "seeded-edge-crashes", "seeded-wan-partitions",
        "seeded-stream-stalls", "stats-jobs-failed-over",
        "stats-sessions-degraded"])
def test_a_deleted_option_is_refused(make, name):
    with pytest.raises(TypeError, match=name):
        make()


@pytest.mark.parametrize("make, name", [
    (link, "set_slowdown"),
    (link, "slowdown"),
    (lambda: WanDegradation(0, 1.0, 1.0), "partition"),
    (ingest, "sessions_degraded"),
    (ingest, "on_session_degraded"),
    (lambda: ServiceFaultDriver, "on_session_degraded"),
    (FaultStats, "jobs_failed_over"),
    (FaultStats, "sessions_degraded"),
    (lambda: ServiceStatus, "sessions_degraded"),
    (lambda: AdmissionError("full"), "sheddable"),
], ids=["link-set-slowdown", "link-slowdown", "wan-partition-flag",
        "ingest-sessions-degraded", "ingest-on-session-degraded",
        "driver-on-session-degraded", "stats-jobs-failed-over",
        "stats-sessions-degraded", "status-sessions-degraded",
        "admission-sheddable"])
def test_a_deleted_attribute_is_gone(make, name):
    assert not hasattr(make(), name)


def test_the_status_json_has_no_degraded_count():
    payload = json.loads(StreamingService().status().to_json())
    assert "sessions_degraded" not in payload


def test_retry_policy_is_gone():
    """The feeder's one cadence replaced the shared retry policy."""
    assert not hasattr(repro.faults, "RetryPolicy")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.faults.retry")
