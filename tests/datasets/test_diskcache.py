"""Tests for the on-disk artifact cache (``repro.datasets.diskcache``)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.codec.gop import EncoderParameters
from cache_tools import clear_cache, list_keys, tree_digest
from repro.datasets import diskcache
from repro.errors import DatasetError


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


class TestContentKey:
    def test_stable_across_calls(self):
        assert diskcache.content_key("a", 1, 2.5) == diskcache.content_key("a", 1, 2.5)

    def test_sensitive_to_every_part(self):
        base = diskcache.content_key("name", "test", 20.0, 0.08)
        assert diskcache.content_key("name2", "test", 20.0, 0.08) != base
        assert diskcache.content_key("name", "train", 20.0, 0.08) != base
        assert diskcache.content_key("name", "test", 21.0, 0.08) != base
        assert diskcache.content_key("name", "test", 20.0, 0.09) != base

    def test_dataclasses_keyed_by_fields(self):
        a = diskcache.content_key(EncoderParameters(gop_size=100))
        b = diskcache.content_key(EncoderParameters(gop_size=100))
        c = diskcache.content_key(EncoderParameters(gop_size=200))
        assert a == b
        assert a != c

    def test_version_bump_changes_keys(self, monkeypatch):
        before = diskcache.content_key("x")
        monkeypatch.setattr(diskcache, "CACHE_SCHEMA_VERSION",
                            diskcache.CACHE_SCHEMA_VERSION + 1)
        assert diskcache.content_key("x") != before

    def test_numpy_scalars_key_like_python_scalars(self):
        assert diskcache.content_key(np.int64(3), np.float64(2.5)) == (
            diskcache.content_key(3, 2.5))
        assert diskcache.content_key((1, 2)) == diskcache.content_key([1, 2])

    def test_unkeyable_objects_are_rejected(self):
        """Objects without a stable canonical form must raise, not fall
        back to a memory-address repr that differs in every process."""
        class Opaque:
            pass
        with pytest.raises(DatasetError, match="Opaque"):
            diskcache.content_key(Opaque())


class TestStoreLoad:
    def test_round_trip(self, cache_dir):
        arrays = {"frames": np.arange(24, dtype=np.uint8).reshape(2, 3, 4),
                  "costs": np.array([1.5, 2.5])}
        key = diskcache.content_key("round-trip")
        path = diskcache.store("unit", key, arrays, {"note": "hello"})
        assert os.path.exists(path)
        assert str(cache_dir) in path
        loaded = diskcache.load("unit", key)
        assert loaded is not None
        got_arrays, manifest = loaded
        assert np.array_equal(got_arrays["frames"], arrays["frames"])
        assert np.array_equal(got_arrays["costs"], arrays["costs"])
        assert manifest["note"] == "hello"
        assert manifest["kind"] == "unit"
        assert manifest["key"] == key

    def test_miss_on_absent_key(self, cache_dir):
        assert diskcache.load("unit", diskcache.content_key("nothing")) is None

    def test_store_writes_exactly_one_file(self, cache_dir):
        key = diskcache.content_key("one-file")
        path = diskcache.store("unit", key, {"x": np.zeros(1)}, {"a": 1})
        # The manifest travels inside the bundle; nothing lands beside it
        # (no sibling manifest, no leftover temp file).
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
        assert tree_digest(str(cache_dir)).keys() == {
            os.path.join("unit", f"{key}.npz")}

    def test_reserved_member_rejected(self, cache_dir):
        with pytest.raises(DatasetError, match="reserved"):
            diskcache.store("unit", "k",
                            {diskcache.MANIFEST_MEMBER: np.zeros(1)})

    def test_corrupted_file_is_a_miss_and_evicted(self, cache_dir):
        key = diskcache.content_key("corrupt")
        path = diskcache.store("unit", key, {"x": np.arange(5)})
        with open(path, "wb") as handle:
            handle.write(b"this is not an npz archive")
        assert diskcache.load("unit", key) is None
        # The corrupt entry was deleted, so a re-store works cleanly.
        assert not os.path.exists(path)
        diskcache.store("unit", key, {"x": np.arange(5)})
        assert diskcache.load("unit", key) is not None

    def test_truncated_file_is_a_miss(self, cache_dir):
        key = diskcache.content_key("truncated")
        path = diskcache.store("unit", key, {"x": np.arange(1000)})
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        assert diskcache.load("unit", key) is None

    def test_schema_version_bump_invalidates_old_entries(self, cache_dir,
                                                         monkeypatch):
        key = diskcache.content_key("versioned")
        diskcache.store("unit", key, {"x": np.arange(3)})
        assert diskcache.load("unit", key) is not None
        # Simulate a layout change: entries written under the old schema
        # must not be readable even when probed with their old key.
        monkeypatch.setattr(diskcache, "CACHE_SCHEMA_VERSION",
                            diskcache.CACHE_SCHEMA_VERSION + 1)
        assert diskcache.load("unit", key) is None

    def test_evict_removes_the_entry(self, cache_dir):
        key = diskcache.content_key("evicted")
        path = diskcache.store("unit", key, {"x": np.arange(7)})
        assert diskcache.evict("unit", key)
        assert not os.path.exists(path)
        assert diskcache.load("unit", key) is None
        # Evicting an absent entry reports that nothing was removed.
        assert not diskcache.evict("unit", key)

    def test_wrong_kind_is_a_miss(self, cache_dir):
        key = diskcache.content_key("kinds")
        diskcache.store("kind-a", key, {"x": np.arange(3)})
        assert diskcache.load("kind-b", key) is None

    def test_list_and_clear(self, cache_dir):
        keys = [diskcache.content_key("entry", index) for index in range(3)]
        for key in keys:
            diskcache.store("unit", key, {"x": np.zeros(2)})
        assert sorted(list_keys("unit")) == sorted(keys)
        assert clear_cache("unit") == 3
        assert list(list_keys("unit")) == []
        # Clearing an empty/absent cache is a no-op.
        assert clear_cache() == 0

    def test_stores_never_evict_other_entries(self, cache_dir):
        """The cache has no size budget: every store adds its entry and
        leaves every other entry, of any kind, readable."""
        keys = [diskcache.content_key("grow", index) for index in range(4)]
        for index, key in enumerate(keys):
            diskcache.store("kind-a", key, {"x": np.full(64, index)})
            diskcache.store("kind-b", key, {"x": np.full(64, -index)})
        for index, key in enumerate(keys):
            assert np.array_equal(diskcache.load("kind-a", key)[0]["x"],
                                  np.full(64, index))
            assert np.array_equal(diskcache.load("kind-b", key)[0]["x"],
                                  np.full(64, -index))
        assert clear_cache() == 8

    def test_embedded_key_mismatch_is_a_miss_and_evicted(self, cache_dir):
        """A bundle under the wrong file name fails manifest verification:
        a miss, the impostor is deleted, the real entry is untouched."""
        genuine = diskcache.content_key("genuine")
        impostor = diskcache.content_key("impostor")
        source = diskcache.store("unit", genuine, {"x": np.arange(4)})
        target = diskcache.artifact_path("unit", impostor)
        with open(source, "rb") as reader, open(target, "wb") as writer:
            writer.write(reader.read())
        assert diskcache.load("unit", impostor) is None
        assert not os.path.exists(target)
        assert diskcache.load("unit", genuine) is not None

    def test_store_into_a_regular_file_raises_oserror(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_bytes(b"")
        with pytest.raises(OSError):
            diskcache.store("unit", "k", {"x": np.zeros(1)},
                            directory=str(blocker))
        # Reads of the same broken directory are plain misses.
        assert diskcache.load("unit", "k", directory=str(blocker)) is None
        assert list(list_keys("unit", str(blocker))) == []

    def test_failed_write_keeps_the_old_entry_and_no_temp_file(
            self, cache_dir, monkeypatch):
        """A writer dying inside the temp write never replaces the entry
        already in place and never leaves its temp file behind."""
        key = diskcache.content_key("atomic")
        path = diskcache.store("unit", key, {"x": np.arange(3)})

        def failing_savez(handle, **arrays):
            handle.write(b"partial")
            raise RuntimeError("disk vanished mid-write")
        with monkeypatch.context() as patch:
            patch.setattr(diskcache.np, "savez_compressed", failing_savez)
            with pytest.raises(RuntimeError):
                diskcache.store("unit", key, {"x": np.arange(99)})
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
        arrays, _ = diskcache.load("unit", key)
        assert np.array_equal(arrays["x"], np.arange(3))

    def test_list_keys_of_an_absent_kind_is_empty(self, cache_dir):
        assert list(list_keys("never-stored")) == []

    def test_tree_digest_tracks_content(self, cache_dir, tmp_path):
        key = diskcache.content_key("digest")
        first = tmp_path / "first"
        second = tmp_path / "second"
        for directory in (first, second):
            diskcache.store("unit", key, {"x": np.arange(5)},
                            directory=str(directory))
        assert tree_digest(str(first)) == (
            tree_digest(str(second)))
        diskcache.store("unit", key, {"x": np.arange(6)},
                        directory=str(second))
        assert tree_digest(str(first)) != (
            tree_digest(str(second)))


class TestCacheDirSelection:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path / "custom"))
        assert diskcache.cache_dir() == str(tmp_path / "custom")

    def test_default_used_when_unset(self, monkeypatch):
        monkeypatch.delenv(diskcache.CACHE_DIR_ENV, raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert diskcache.cache_dir() == os.path.join(
            os.path.expanduser("~"), ".cache", "repro-sieve")

    def test_xdg_cache_home_is_honoured(self, monkeypatch, tmp_path):
        monkeypatch.delenv(diskcache.CACHE_DIR_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert diskcache.cache_dir() == str(tmp_path / "repro-sieve")

    def test_temporary_cache_dir_restores_the_previous_value(
            self, monkeypatch, tmp_path):
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path / "outer"))
        with diskcache.temporary_cache_dir(tmp_path / "inner") as inner:
            assert diskcache.cache_dir() == inner == str(tmp_path / "inner")
        assert diskcache.cache_dir() == str(tmp_path / "outer")
        monkeypatch.delenv(diskcache.CACHE_DIR_ENV)
        with diskcache.temporary_cache_dir(tmp_path / "inner"):
            pass
        assert diskcache.CACHE_DIR_ENV not in os.environ


#: Script run by each racing writer process: stores a deterministic bundle
#: under the shared key, then loads it back and verifies the contents.
_RACER_SCRIPT = """
import sys

import numpy as np

sys.path.insert(0, {src!r})
from repro.datasets import diskcache

arrays = {{"payload": np.arange(10_000, dtype=np.int64)}}
for _ in range(20):
    diskcache.store("race", {key!r}, arrays, {{"writer": "racer"}})
    loaded = diskcache.load("race", {key!r})
    assert loaded is not None, "reader observed a broken entry"
    got, _ = loaded
    assert np.array_equal(got["payload"], arrays["payload"])
print("ok")
"""


class TestConcurrentWriters:
    def test_two_processes_racing_one_key(self, cache_dir):
        """Two writer/reader processes hammer the same key concurrently.

        The write-then-rename protocol means a reader can never observe a
        half-written bundle, whichever writer wins each round.
        """
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        key = diskcache.content_key("contended-entry")
        script = _RACER_SCRIPT.format(src=src, key=key)
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
        racers = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE)
                  for _ in range(2)]
        for racer in racers:
            stdout, stderr = racer.communicate(timeout=120)
            assert racer.returncode == 0, stderr.decode()
            assert stdout.decode().strip() == "ok"
        final = diskcache.load("race", key)
        assert final is not None
        arrays, manifest = final
        assert np.array_equal(arrays["payload"],
                              np.arange(10_000, dtype=np.int64))
        assert manifest["writer"] == "racer"
