"""Serving-path options that no example, benchmark or CI run set are gone.

Each was deleted with its default behaviour kept as the one behaviour:
the WAN-queue admission bound, the stage-start hook, the feeder's retry
settings and ``RetryPolicy``, per-tenant LAN sizing and the health-history
length.  A deleted option is refused by name, so putting one back is a
visible change to this file.
"""

from __future__ import annotations

import importlib

import pytest

import repro.faults
from repro.cluster.topology import StageChain
from repro.config import SystemConfig
from repro.dataflow.scheduler import EventScheduler, ServiceStation
from repro.net.contention import ContendedLink
from repro.net.link import NetworkLink
from repro.service import ChunkFeeder, StreamingService, TenantPolicy
from repro.service.ingest import StreamIngest


def ingest(**option):
    return StreamIngest(EventScheduler(), 1, lambda session: None,
                        lambda session, chunk: None, **option)


def feeder(**option):
    return ChunkFeeder(StreamingService(), "cam", [], period_seconds=1.0,
                       **option)


def chain(**option):
    return StageChain(EventScheduler(), SystemConfig(), range(1), **option)


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
    (lambda: ContendedLink(EventScheduler(), NetworkLink("l", 10.0)).submit(
        1_000, on_start=lambda payload: None), "on_start"),
], ids=["service-wan-bound", "service-history-limit", "ingest-wan-bound",
        "ingest-wan-depth", "feeder-retry-seconds", "feeder-retry-policy",
        "tenant-config", "chain-stage-start", "lan-link-config",
        "station-on-start", "link-on-start"])
def test_a_deleted_option_is_refused(make, name):
    with pytest.raises(TypeError, match=name):
        make()


def test_retry_policy_is_gone():
    """The feeder's one cadence replaced the shared retry policy."""
    assert not hasattr(repro.faults, "RetryPolicy")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.faults.retry")
