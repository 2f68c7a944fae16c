"""Test-side tools for the on-disk artifact cache.

No shipping run lists, clears, fingerprints or corrupts the cache, or
drops the experiments' in-process cache: these helpers only serve the
suite's cache, crash-consistency and byte-identity tests.  They read the
layout :mod:`repro.datasets.diskcache` writes
(``<cache dir>/<kind>/<key>.npz``) and nothing else.

:class:`CacheCorruption` / :func:`apply_cache_corruption` inflict on-disk
damage between a store and the next load; the cache's own verification
must degrade every mode to a clean miss and a recompute.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.datasets import diskcache
from repro.errors import FaultError
from repro.experiments import common


def clear_prepared_cache() -> int:
    """Drop the experiment harnesses' in-process caches; returns how many
    artifacts were dropped.  On-disk entries persist."""
    dropped = len(common._PREPARED_CACHE) + len(common._WORKLOAD_CACHE)
    common._PREPARED_CACHE.clear()
    common._WORKLOAD_CACHE.clear()
    return dropped


#: Supported :class:`CacheCorruption` modes (see ``apply_cache_corruption``).
CACHE_CORRUPTION_MODES = ("torn-write", "truncate-bundle")


def tree_digest(directory: Optional[str] = None) -> Dict[str, str]:
    """``{relative path: sha256 hex}`` of every file under ``directory``.

    Verification helper for the byte-identity contract of parallel builds:
    two cache directories produced from the same inputs must compare equal.
    """
    root = directory or diskcache.cache_dir()
    digests: Dict[str, str] = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, root)] = hashlib.sha256(
                    handle.read()).hexdigest()
    return digests


def list_keys(kind: str, directory: Optional[str] = None) -> List[str]:
    """Keys currently stored under ``kind`` (unverified, sorted)."""
    root = os.path.join(directory or diskcache.cache_dir(), kind)
    try:
        names = sorted(
            entry for entry in os.listdir(root) if entry.endswith(".npz"))
    except OSError:
        return []
    return [name[:-len(".npz")] for name in names]


def clear_cache(kind: Optional[str] = None,
                directory: Optional[str] = None) -> int:
    """Remove every cached bundle (of ``kind``, or all kinds); returns count."""
    root = directory or diskcache.cache_dir()
    kinds = [kind] if kind else []
    if not kinds:
        try:
            kinds = [entry for entry in os.listdir(root)
                     if os.path.isdir(os.path.join(root, entry))]
        except OSError:
            return 0
    removed = 0
    for one_kind in kinds:
        for key in list_keys(one_kind, root):
            if diskcache.evict(one_kind, key, root):
                removed += 1
    return removed


@dataclass(frozen=True)
class CacheCorruption:
    """On-disk corruption of one dataset-cache entry.

    Applied by ``apply_cache_corruption`` between a store and the next
    load; the cache's own verification degrades every mode to a clean
    miss / recompute.
    """

    kind: str
    key: str
    mode: str = "truncate-bundle"

    def __post_init__(self) -> None:
        if not (self.kind and self.key):
            raise FaultError("kind and key must be non-empty")
        if self.mode not in CACHE_CORRUPTION_MODES:
            raise FaultError(f"mode must be one of {CACHE_CORRUPTION_MODES}")


def apply_cache_corruption(spec: CacheCorruption,
                           directory: Optional[str] = None) -> str:
    """Inflict ``spec`` on the on-disk dataset cache; returns the path hit.

    * ``torn-write`` — plant a truncated ``.tmp-*`` file next to where
      the bundle would live, as if the process died between the temp
      write and the atomic rename.  The entry itself is absent, so the
      next load is a clean miss.
    * ``truncate-bundle`` — chop the stored ``.npz`` in half; the next
      load fails verification, evicts and recomputes.
    """
    bundle = diskcache.artifact_path(spec.kind, spec.key,
                                     directory=directory)
    if spec.mode == "torn-write":
        torn = os.path.join(os.path.dirname(bundle),
                            f".tmp-torn-{spec.key[:16]}")
        os.makedirs(os.path.dirname(bundle), exist_ok=True)
        with open(torn, "wb") as handle:
            handle.write(b"\x00" * 7)
        return torn
    if not os.path.exists(bundle):
        raise FaultError(f"no cached bundle to corrupt at {bundle}")
    size = os.path.getsize(bundle)
    with open(bundle, "r+b") as handle:
        handle.truncate(max(size // 2, 1))
    return bundle
