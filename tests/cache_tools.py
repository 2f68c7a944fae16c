"""Test-side tool for the experiments' in-process artifact cache.

No shipping run drops that cache; the suite's cache and parallel-build
tests do, to build cold in one process.
"""

from __future__ import annotations

from repro.experiments import common


def clear_prepared_cache() -> int:
    """Drop the experiment harnesses' in-process caches; returns how many
    artifacts were dropped."""
    dropped = len(common._PREPARED_CACHE) + len(common._WORKLOAD_CACHE)
    common._PREPARED_CACHE.clear()
    common._WORKLOAD_CACHE.clear()
    return dropped
