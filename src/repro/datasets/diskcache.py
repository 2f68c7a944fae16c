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
* **Atomic write-then-rename.**  Writers dump the ``.npz`` bundle (and a
  human-readable ``.json`` manifest next to it) into a unique temporary
  file in the cache directory and ``os.replace`` it into place.  Two
  processes racing the same key therefore both succeed: the loser's rename
  simply overwrites the winner's identical bytes, and a reader never
  observes a half-written file.
* **Corruption safety.**  A load that fails for *any* reason — truncated
  file, wrong embedded key, schema mismatch, unpicklable garbage — is a
  cache miss: the bad entry is deleted best-effort and the caller
  recomputes.  The cache can always be deleted wholesale
  (:func:`clear_cache`); nothing in it is authoritative.

The authoritative manifest travels *inside* the ``.npz`` (as a JSON string
under :data:`MANIFEST_MEMBER`), so the bundle is self-validating even if
the sibling ``.json`` file is lost or mismatched.

On top of the content-keyed store sits a **size budget**: when
``REPRO_CACHE_MAX_BYTES`` is set, every :func:`store` triggers an LRU
:func:`sweep` that evicts the least-recently-used entries until the cache
fits the budget again.  Access time is carried by the sibling ``.json``
manifest's mtime (touched on every verified hit, restored when missing), so
the sweep never has to open a bundle; eviction reuses the atomic
:func:`evict` (unlink both files, best-effort), which makes concurrent
sweepers/writers safe — a racer at worst re-renders one entry.  Entries of
the *active* build are protected twice over: in-process through
:func:`pinned` (the experiment harnesses pin every key they are building),
and cross-process through LRU order itself (a just-written entry is by
definition the newest).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..logging_utils import get_logger

_LOGGER = get_logger(__name__)

#: Environment variable naming the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable holding the cache size budget in bytes.  Unset,
#: empty or non-positive means unlimited (no automatic sweeping).
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

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


def cache_max_bytes() -> Optional[int]:
    """The configured size budget in bytes; ``None`` means unlimited.

    Never raises: the budget is first consulted deep inside a build (at
    the end of the first expensive render), where crashing on a typo'd
    value would violate the cache layer's never-fail contract.  An
    unparseable (or non-finite) value is warned about and treated as
    unlimited.
    """
    raw = os.environ.get(CACHE_MAX_BYTES_ENV, "").strip()
    if not raw:
        return None
    try:
        budget = int(float(raw))
    except (ValueError, OverflowError):
        global _WARNED_BAD_BUDGET
        if raw != _WARNED_BAD_BUDGET:  # once per value, not once per store
            _WARNED_BAD_BUDGET = raw
            _LOGGER.warning(
                "ignoring unparseable %s=%r; the cache size is unlimited",
                CACHE_MAX_BYTES_ENV, raw)
        return None
    return budget if budget > 0 else None


#: Last unparseable budget value already warned about (warn-once memo).
_WARNED_BAD_BUDGET: Optional[str] = None


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


def _sibling_json(npz_path: str) -> str:
    """Path of the human-readable manifest next to an ``.npz`` bundle."""
    return npz_path[:-len(".npz")] + ".json"


# --------------------------------------------------------------------------- #
# Pinning: entries of the active build that the LRU sweep must not evict
# --------------------------------------------------------------------------- #
#: Reference counts of pinned ``(kind, key)`` pairs.  Pins are in-process
#: (the experiment harnesses pin every artifact of the build in flight);
#: cross-process protection comes from LRU order — fresh entries are the
#: last candidates for eviction.
_PIN_COUNTS: Dict[Tuple[str, str], int] = {}


@contextmanager
def pinned(entries: Iterable[Tuple[str, str]]) -> Iterator[None]:
    """Protect ``(kind, key)`` pairs from :func:`sweep` for the block.

    Pins nest (reference counted) and cost nothing when no size budget is
    configured.  The sweep keeps pinned entries even when that leaves the
    cache above budget — an active build must never lose its own artifacts.
    """
    held = [(str(kind), str(key)) for kind, key in entries]
    for entry in held:
        _PIN_COUNTS[entry] = _PIN_COUNTS.get(entry, 0) + 1
    try:
        yield
    finally:
        for entry in held:
            remaining = _PIN_COUNTS.get(entry, 0) - 1
            if remaining <= 0:
                _PIN_COUNTS.pop(entry, None)
            else:
                _PIN_COUNTS[entry] = remaining


def pinned_entries() -> Set[Tuple[str, str]]:
    """The ``(kind, key)`` pairs currently pinned in this process."""
    return set(_PIN_COUNTS)


def touch(kind: str, key: str, directory: Optional[str] = None) -> None:
    """Refresh the access time of ``(kind, key)`` (best-effort).

    The LRU clock of an entry is its sibling ``.json`` manifest's mtime;
    when the sibling has gone missing the bundle's own mtime stands in, so
    touching falls back to the ``.npz``.  Races with eviction are benign —
    a vanished file is simply not touched.
    """
    path = artifact_path(kind, key, directory)
    for victim in (_sibling_json(path), path):
        try:
            os.utime(victim)
            return
        except OSError:
            continue


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
    in the bundle and mirrored to a sibling ``.json`` for inspection (and
    as the entry's LRU access-time carrier).  Failures to write (read-only
    filesystem, disk full) are the caller's to handle; the cache never
    half-writes thanks to the rename.  When ``REPRO_CACHE_MAX_BYTES`` is
    configured, a successful store triggers an LRU :func:`sweep` with the
    just-written entry pinned.
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
    _atomic_write(_sibling_json(path),
                  lambda handle: handle.write(manifest_json.encode("utf-8")))
    budget = cache_max_bytes()
    if budget is not None:
        sweep(max_bytes=budget, directory=directory,
              extra_pinned=((kind, key),))
    return path


def load(kind: str, key: str, directory: Optional[str] = None
         ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, object]]]:
    """Read the bundle for ``(kind, key)``; ``None`` on miss or corruption.

    Returns:
        ``(arrays, manifest)`` on a verified hit.  Any load failure —
        missing file, truncated archive, key/schema mismatch — deletes the
        entry best-effort and reports a miss.

    Both orders of partial deletion are handled: a bundle whose sibling
    ``.json`` is gone still hits (the authoritative manifest is embedded)
    and the sibling is rewritten so the entry regains its LRU clock; a
    lingering ``.json`` whose bundle is gone is a miss and the orphan is
    cleaned up rather than left to age in the cache directory forever.
    """
    path = artifact_path(kind, key, directory)
    if not os.path.exists(path):
        # The bundle is gone; a surviving sibling manifest is an orphan
        # (e.g. the other half of a crashed eviction) — remove it.  Only
        # the sibling: unlinking the bundle path here would race a writer
        # whose rename landed after the exists() check and destroy its
        # freshly completed entry (a lost sibling is restored on hit).
        try:
            os.unlink(_sibling_json(path))
        except OSError:
            pass
        return None
    try:
        # The handle is opened here, not by np.load: a truncated archive
        # makes NpzFile raise before np.load could close a file it opened.
        with open(path, "rb") as handle, \
                np.load(handle, allow_pickle=False) as bundle:
            manifest_bytes = bytes(bundle[MANIFEST_MEMBER])
            manifest = json.loads(manifest_bytes.decode("utf-8"))
            if (manifest.get("kind") != kind or manifest.get("key") != key
                    or manifest.get("schema_version") != CACHE_SCHEMA_VERSION):
                raise ValueError("manifest does not match the requested key")
            arrays = {name: bundle[name] for name in bundle.files
                      if name != MANIFEST_MEMBER}
    except Exception:
        evict(kind, key, directory)
        return None
    sibling = _sibling_json(path)
    if not os.path.exists(sibling):
        # Restore the lost sibling from the embedded manifest so the entry
        # is inspectable again and regains its LRU access-time carrier.
        try:
            _atomic_write(sibling, lambda handle: handle.write(manifest_bytes))
        except OSError:
            pass
    else:
        touch(kind, key, directory)
    return arrays, manifest


def evict(kind: str, key: str, directory: Optional[str] = None) -> bool:
    """Delete the entry for ``(kind, key)`` (best-effort); True if removed."""
    path = artifact_path(kind, key, directory)
    removed = False
    for victim in (path, _sibling_json(path)):
        try:
            os.unlink(victim)
            removed = True
        except OSError:
            pass
    return removed


# --------------------------------------------------------------------------- #
# Size budget: scan + LRU sweep
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CacheEntryInfo:
    """One cache entry as seen by :func:`scan_entries`.

    Attributes:
        kind: Artifact kind (directory name).
        key: Content key.
        size_bytes: Bundle plus sibling-manifest size.
        atime: LRU clock — the sibling ``.json`` mtime when present, the
            bundle's own mtime otherwise.
    """

    kind: str
    key: str
    size_bytes: int
    atime: float


@dataclass
class SweepResult:
    """What one :func:`sweep` did.

    Attributes:
        total_bytes_before: Cache size when the sweep started.
        total_bytes_after: Cache size after evictions (as accounted by the
            sweep; concurrent writers may change it immediately).
        evicted: ``(kind, key)`` pairs removed, oldest first.
        kept_pinned: Entries that would have been evicted but were pinned.
        orphans_removed: Stray sibling ``.json`` files cleaned up.
        evict_failures: Entries that should have been evicted but could
            not be unlinked (their size stays in ``total_bytes_after``).
    """

    total_bytes_before: int = 0
    total_bytes_after: int = 0
    evicted: List[Tuple[str, str]] = field(default_factory=list)
    kept_pinned: int = 0
    orphans_removed: int = 0
    evict_failures: int = 0


def _scan(directory: Optional[str]
          ) -> Tuple[List[CacheEntryInfo], List[str]]:
    """One walk of the cache tree: ``(entries oldest-first, orphan paths)``.

    Orphans are sibling ``.json`` files whose ``.npz`` bundle is gone.
    Files vanishing mid-scan (concurrent evictions) are skipped; sizes and
    access times are therefore a snapshot, good enough for LRU ordering.
    """
    root = directory or cache_dir()
    entries: List[CacheEntryInfo] = []
    orphans: List[str] = []
    try:
        kinds = sorted(entry for entry in os.listdir(root)
                       if os.path.isdir(os.path.join(root, entry)))
    except OSError:
        return [], []
    for kind in kinds:
        kind_dir = os.path.join(root, kind)
        try:
            names = os.listdir(kind_dir)
        except OSError:
            continue
        present = set(names)
        for name in sorted(names):
            if (name.endswith(".json")
                    and name[:-len(".json")] + ".npz" not in present):
                orphans.append(os.path.join(kind_dir, name))
                continue
            if not name.endswith(".npz"):
                continue
            key = name[:-len(".npz")]
            path = os.path.join(kind_dir, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue  # evicted between listing and stat
            size = stat.st_size
            atime = stat.st_mtime
            try:
                sibling_stat = os.stat(_sibling_json(path))
                size += sibling_stat.st_size
                atime = sibling_stat.st_mtime
            except OSError:
                pass  # missing sibling: the bundle's own mtime stands in
            entries.append(CacheEntryInfo(kind=kind, key=key,
                                          size_bytes=size, atime=atime))
    entries.sort(key=lambda entry: (entry.atime, entry.kind, entry.key))
    return entries, orphans


def scan_entries(directory: Optional[str] = None) -> List[CacheEntryInfo]:
    """Every entry in the cache, across kinds, oldest access first."""
    return _scan(directory)[0]


def cache_total_bytes(directory: Optional[str] = None) -> int:
    """Current cache size (bundles plus sibling manifests)."""
    return sum(entry.size_bytes for entry in scan_entries(directory))


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


def sweep(max_bytes: Optional[int] = None, directory: Optional[str] = None,
          extra_pinned: Iterable[Tuple[str, str]] = ()) -> SweepResult:
    """Evict least-recently-used entries until the cache fits ``max_bytes``.

    Args:
        max_bytes: Size budget; defaults to ``REPRO_CACHE_MAX_BYTES``.
            ``None`` (unset) only cleans up orphaned sibling manifests.
        directory: Cache directory (defaults to the active one).
        extra_pinned: Additional ``(kind, key)`` pairs to protect beyond
            the process-wide :func:`pinned` set.

    Eviction is the atomic best-effort :func:`evict`, so sweeps racing
    writers (or each other) are safe: an entry evicted underneath a reader
    is a plain cache miss, and an entry re-stored underneath the sweep is
    a fresh file the next sweep accounts for.  Pinned entries are never
    evicted, even when keeping them leaves the cache above budget.
    """
    if max_bytes is None:
        max_bytes = cache_max_bytes()
    result = SweepResult()
    entries, orphans = _scan(directory)
    for orphan in orphans:
        try:
            os.unlink(orphan)
            result.orphans_removed += 1
        except OSError:
            pass
    total = sum(entry.size_bytes for entry in entries)
    result.total_bytes_before = total
    result.total_bytes_after = total
    if max_bytes is None:
        return result
    protected = pinned_entries()
    protected.update((str(kind), str(key)) for kind, key in extra_pinned)
    for entry in entries:  # oldest access first
        if total <= max_bytes:
            break
        if (entry.kind, entry.key) in protected:
            result.kept_pinned += 1
            continue
        evict(entry.kind, entry.key, directory)
        # Success is "the bundle is actually gone", not evict()'s return
        # (which is true on any partial unlink): an entry this process
        # cannot remove (permissions, shared cache) must not be booked as
        # freed space — keep looking for evictable ones rather than
        # pretending the budget was met.  A lingering sibling after a
        # removed bundle skews the accounting by only its few bytes.
        if os.path.exists(artifact_path(entry.kind, entry.key, directory)):
            result.evict_failures += 1
        else:
            total -= entry.size_bytes
            result.evicted.append((entry.kind, entry.key))
    result.total_bytes_after = max(total, 0)
    return result


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
