"""Worker-count resolution honours the CPU affinity mask.

Regression: auto worker sizing (``workers=0``) used to read
``os.cpu_count()``, which reports every CPU in the machine — inside a
container restricted to a cpuset (or under ``taskset``), that
over-subscribes the pool.  :func:`repro.config.available_cpu_count` now
prefers ``len(os.sched_getaffinity(0))`` and only falls back to
``os.cpu_count()`` (then ``1``) when the affinity mask is unavailable.
"""

from __future__ import annotations

import os

import pytest

from repro.config import available_cpu_count, resolve_worker_count
from repro.errors import ConfigurationError


class TestAvailableCpuCount:
    def test_prefers_affinity_mask_over_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert available_cpu_count() == 2

    def test_falls_back_when_affinity_is_absent(self, monkeypatch):
        # macOS/Windows: os has no sched_getaffinity at all.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert available_cpu_count() == 6

    def test_falls_back_when_affinity_raises(self, monkeypatch):
        def broken(pid):
            raise OSError("no affinity support")

        monkeypatch.setattr(os, "sched_getaffinity", broken, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert available_cpu_count() == 4

    def test_falls_back_when_affinity_is_empty(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_cpu_count() == 3

    def test_last_resort_is_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cpu_count() == 1

    def test_matches_this_machine(self):
        count = available_cpu_count()
        assert count >= 1
        if hasattr(os, "sched_getaffinity"):
            assert count == len(os.sched_getaffinity(0))


class TestResolveWorkerCount:
    def test_zero_resolves_to_available_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_worker_count(0, "build_workers") == 3

    def test_positive_passes_through(self):
        assert resolve_worker_count(5, "build_workers") == 5

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_worker_count(-1, "build_workers")
