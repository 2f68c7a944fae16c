"""Content-keyed on-disk artifact cache (``REPRO_CACHE_DIR``).

The in-process prepared-dataset cache introduced with the perf work makes
repeat preparations free *within* one Python session, but every new pytest
session, benchmark run or example still re-renders the synthetic footage
from scratch.  This module adds the persistent layer underneath: numpy
artifacts are written as ``.npz`` bundles under a content key, so any
process that computes the same inputs reads the finished arrays back
instead of recomputing them.

Design:

* **Content keys.**  :func:`content_key` hashes a JSON canonicalisation of
  every input that affects the artifact (dataset name, split, footage
  scale, encoder parameters, code schema version, ...).  Changing any
  ingredient — including :data:`CACHE_SCHEMA_VERSION` when the on-disk
  layout evolves — moves the artifact to a new key, so stale entries are
  never read, only orphaned.
* **Atomic write-then-rename.**  Writers dump the ``.npz`` bundle into a
  unique temporary file in the cache directory and ``os.replace`` it into
  place, so a store writes exactly one file per entry.  Two processes
  racing the same key therefore both succeed: the loser's rename simply
  overwrites the winner's identical bytes, and a reader never observes a
  half-written file.
* **Self-validating bundles.**  The manifest travels *inside* the ``.npz``
  (as a JSON string under :data:`MANIFEST_MEMBER`) and is checked against
  the requested kind, key and schema version on every load.
* **Corruption safety.**  A load that fails for *any* reason — truncated
  file, wrong embedded key, schema mismatch, unpicklable garbage — is a
  cache miss: the bad entry is deleted best-effort and the caller
  recomputes.  The cache can always be deleted wholesale
  (:func:`clear_cache`); nothing in it is authoritative.
* **Never fatal.**  The cache only ever saves work.  A cache directory that
  cannot be written (read-only, full, or a path naming a regular file)
  makes :func:`store` raise ``OSError``; the callers in
  :mod:`repro.experiments.common` catch it and simply recompute next time.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

#: Environment variable naming the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump whenever the serialised layout (or the semantics of anything cached
#: under it) changes; every key embeds this, invalidating older entries.
CACHE_SCHEMA_VERSION = 1

#: Name of the JSON manifest member embedded in every ``.npz`` bundle.
MANIFEST_MEMBER = "__manifest__"


def default_cache_dir() -> str:
    """The cache directory used when ``REPRO_CACHE_DIR`` is unset."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-sieve")


def cache_dir() -> str:
    """The active cache directory (honours ``REPRO_CACHE_DIR``)."""
    configured = os.environ.get(CACHE_DIR_ENV, "").strip()
    return configured if configured else default_cache_dir()


@contextmanager
def temporary_cache_dir(directory: str) -> Iterator[str]:
    """Point ``REPRO_CACHE_DIR`` at ``directory`` for the enclosed block.

    Restores the previous value (or unset state) on exit.  The test and
    benchmark suites use this to stay hermetic — no reads from, or writes
    to, the user-level cache.
    """
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(directory)
    try:
        yield str(directory)
    finally:
        if previous is None:
            os.environ.pop(CACHE_DIR_ENV, None)
        else:
            os.environ[CACHE_DIR_ENV] = previous


def _canonical(value):
    """Reduce ``value`` to JSON-serialisable canonical form for hashing."""
    if isinstance(value, dict):
        return {str(key): _canonical(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if hasattr(value, "__dataclass_fields__"):
        fields = value.__dataclass_fields__
        return {name: _canonical(getattr(value, name)) for name in sorted(fields)}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # No repr() fallback: a default repr embeds a memory address, which
    # would silently produce a different key in every process and turn the
    # cross-session cache into a write-only store.
    raise TypeError(
        f"cannot canonicalise {type(value).__name__!r} into a cache key; "
        "pass primitives, containers or dataclasses")


def content_key(*parts) -> str:
    """Hash ``parts`` (plus the schema version) into a stable hex key.

    Dataclasses are keyed by their field values, containers recursively;
    the digest is stable across processes and Python versions.
    """
    payload = json.dumps(_canonical([CACHE_SCHEMA_VERSION, *parts]),
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def artifact_path(kind: str, key: str, directory: Optional[str] = None) -> str:
    """Path of the ``.npz`` bundle for ``(kind, key)``."""
    return os.path.join(directory or cache_dir(), kind, f"{key}.npz")


def _atomic_write(path: str, write_fn) -> None:
    """Write via ``write_fn(handle)`` into a temp file, then rename."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    descriptor, tmp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(descriptor, "wb") as handle:
            write_fn(handle)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def store(kind: str, key: str, arrays: Dict[str, np.ndarray],
          manifest: Optional[Dict[str, object]] = None,
          directory: Optional[str] = None) -> str:
    """Persist ``arrays`` under ``(kind, key)``; returns the bundle path.

    The manifest (augmented with the kind/key/schema version) is embedded
    in the bundle, which is the entry's only file.  Failures to write
    (read-only filesystem, disk full) raise ``OSError`` for the caller to
    handle; the cache never half-writes thanks to the rename.
    """
    if MANIFEST_MEMBER in arrays:
        raise ValueError(f"array name {MANIFEST_MEMBER!r} is reserved")
    path = artifact_path(kind, key, directory)
    full_manifest = dict(manifest or {})
    full_manifest.update({
        "kind": kind,
        "key": key,
        "schema_version": CACHE_SCHEMA_VERSION,
    })
    manifest_json = json.dumps(full_manifest, sort_keys=True, default=repr)
    payload = dict(arrays)
    payload[MANIFEST_MEMBER] = np.frombuffer(
        manifest_json.encode("utf-8"), dtype=np.uint8)

    _atomic_write(path, lambda handle: np.savez_compressed(handle, **payload))
    return path


def load(kind: str, key: str, directory: Optional[str] = None
         ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, object]]]:
    """Read the bundle for ``(kind, key)``; ``None`` on miss or corruption.

    Returns:
        ``(arrays, manifest)`` on a verified hit.  Any load failure —
        missing file, truncated archive, key/schema mismatch — deletes the
        entry best-effort and reports a miss.
    """
    path = artifact_path(kind, key, directory)
    if not os.path.exists(path):
        # A plain miss.  Nothing is evicted here: unlinking the path would
        # race a writer whose rename landed after the exists() check and
        # destroy its freshly completed entry.
        return None
    try:
        # The handle is opened here, not by np.load: a truncated archive
        # makes NpzFile raise before np.load could close a file it opened.
        with open(path, "rb") as handle, \
                np.load(handle, allow_pickle=False) as bundle:
            manifest = json.loads(
                bytes(bundle[MANIFEST_MEMBER]).decode("utf-8"))
            if (manifest.get("kind") != kind or manifest.get("key") != key
                    or manifest.get("schema_version") != CACHE_SCHEMA_VERSION):
                raise ValueError("manifest does not match the requested key")
            arrays = {name: bundle[name] for name in bundle.files
                      if name != MANIFEST_MEMBER}
    except Exception:
        evict(kind, key, directory)
        return None
    return arrays, manifest


def evict(kind: str, key: str, directory: Optional[str] = None) -> bool:
    """Delete the entry for ``(kind, key)`` (best-effort); True if removed."""
    try:
        os.unlink(artifact_path(kind, key, directory))
    except OSError:
        return False
    return True


def tree_digest(directory: Optional[str] = None) -> Dict[str, str]:
    """``{relative path: sha256 hex}`` of every file under ``directory``.

    Verification helper for the byte-identity contract of parallel builds:
    two cache directories produced from the same inputs must compare equal
    (asserted by the workload-builder tests and ``bench_figure4``).
    """
    root = directory or cache_dir()
    digests: Dict[str, str] = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, root)] = hashlib.sha256(
                    handle.read()).hexdigest()
    return digests


def list_keys(kind: str, directory: Optional[str] = None) -> Iterable[str]:
    """Keys currently stored under ``kind`` (unverified, newest last)."""
    root = os.path.join(directory or cache_dir(), kind)
    try:
        names = sorted(
            entry for entry in os.listdir(root) if entry.endswith(".npz"))
    except OSError:
        return []
    return [name[:-len(".npz")] for name in names]


def clear_cache(kind: Optional[str] = None,
                directory: Optional[str] = None) -> int:
    """Remove every cached bundle (of ``kind``, or all kinds); returns count."""
    root = directory or cache_dir()
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
            if evict(one_kind, key, root):
                removed += 1
    return removed
