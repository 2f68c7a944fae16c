"""Crash-consistency of the on-disk artifact cache.

Injects the on-disk corruption modes of the fault plane
(:func:`repro.faults.plan.apply_cache_corruption`) between a store and
the next load, simulating a writer that died mid-write or a bundle that
rotted on disk:

* **torn write** — the process died after writing the temp file but
  before the atomic rename: the entry is simply absent (clean miss), the
  stray temp file never shadows it, and a recompute stores over it.
* **truncated bundle** — a half-written ``.npz`` fails verification on
  load, is evicted, and the caller recomputes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datasets import diskcache
from repro.faults import CacheCorruption, apply_cache_corruption

KIND = "crash-consistency"


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


def arrays():
    return {"frames": np.arange(48, dtype=np.uint8).reshape(3, 4, 4),
            "costs": np.array([1.5, 2.5, 3.5])}


class TestTornWrite:
    def test_torn_write_is_a_clean_miss_then_recompute(self, cache_dir):
        key = diskcache.content_key("torn")
        spec = CacheCorruption(kind=KIND, key=key, mode="torn-write")
        torn_path = apply_cache_corruption(spec)
        assert os.path.exists(torn_path)

        # The rename never happened: the entry is absent, the stray temp
        # file does not shadow it.
        assert diskcache.load(KIND, key) is None
        # The "recompute" stores normally and the next load hits.
        diskcache.store(KIND, key, arrays())
        loaded = diskcache.load(KIND, key)
        assert loaded is not None
        got, manifest = loaded
        assert np.array_equal(got["frames"], arrays()["frames"])
        assert manifest["key"] == key
        # The stray temp file is neither listed as an entry nor cleared.
        assert list(diskcache.list_keys(KIND)) == [key]
        assert diskcache.clear_cache(KIND) == 1
        assert os.path.exists(torn_path)


class TestTruncatedBundle:
    def test_truncated_bundle_degrades_to_recompute(self, cache_dir):
        key = diskcache.content_key("truncated")
        path = diskcache.store(KIND, key, arrays())
        whole = os.path.getsize(path)
        bundle = apply_cache_corruption(
            CacheCorruption(kind=KIND, key=key, mode="truncate-bundle"))
        assert os.path.getsize(bundle) < whole

        # Verification fails -> miss; the bad entry is evicted so it cannot
        # poison later readers.
        assert diskcache.load(KIND, key) is None
        assert not os.path.exists(path)
        # Recompute restores a verified hit.
        diskcache.store(KIND, key, arrays())
        assert diskcache.load(KIND, key) is not None


class TestCorruptionSpecPlumbing:
    def test_modes_are_torn_write_and_truncate_bundle(self):
        from repro.faults import CACHE_CORRUPTION_MODES
        assert CACHE_CORRUPTION_MODES == ("torn-write", "truncate-bundle")
        assert CacheCorruption(kind=KIND, key="k").mode == "truncate-bundle"

    def test_modes_are_validated(self):
        from repro.errors import FaultError
        with pytest.raises(FaultError):
            CacheCorruption(kind=KIND, key="k", mode="set-on-fire")
        with pytest.raises(FaultError):
            CacheCorruption(kind="", key="k")

    def test_corrupting_an_absent_bundle_raises(self, cache_dir):
        from repro.errors import FaultError
        with pytest.raises(FaultError):
            apply_cache_corruption(CacheCorruption(
                kind=KIND, key=diskcache.content_key("nope"),
                mode="truncate-bundle"))
