"""Result database of per-frame object labels.

"The cloud engine ... stores the result in a database.  The results are in
the form of a list of tuples where each tuple consists of frame ID and the
object names that appear in the frame." (Section III)

Two implementations share the query surface:

* :class:`ResultDatabase` — the original in-memory dict, still the default
  for single-process simulations and tests;
* :class:`SQLiteResultStore` — a persistent, multi-process-safe store
  (WAL journal, busy-waiting writers, one transaction per mutation) that
  several processes can share as a sink.  Every row carries a
  sha256 content hash over its canonical encoding, so read-back can prove
  the stored results are exactly what was written
  (:meth:`SQLiteResultStore.verify_integrity`), and whole
  :class:`~repro.cluster.fleet.FleetReport` summaries round-trip through
  :meth:`SQLiteResultStore.store_fleet_report` /
  :meth:`SQLiteResultStore.report_summary`.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..errors import ClusterError
from ..video.events import LabelSet, as_label_set

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only.
    from .fleet import FleetReport


@dataclass(frozen=True)
class ResultRecord:
    """One detection result row.

    Attributes:
        video_name: Source video.
        frame_index: Frame the labels belong to.
        labels: Detected object labels.
    """

    video_name: str
    frame_index: int
    labels: LabelSet


class ResultDatabase:
    """Append-only store of ``(video, frame, labels)`` detection results."""

    def __init__(self) -> None:
        self._records: Dict[Tuple[str, int], ResultRecord] = {}

    def record(self, video_name: str, frame_index: int,
               labels: Iterable[str]) -> ResultRecord:
        """Insert (or overwrite) the labels of one frame."""
        if frame_index < 0:
            raise ClusterError("frame_index must be >= 0")
        row = ResultRecord(video_name=video_name, frame_index=int(frame_index),
                           labels=as_label_set(labels))
        self._records[(video_name, int(frame_index))] = row
        return row

    def labels_for(self, video_name: str, frame_index: int) -> Optional[LabelSet]:
        """Labels recorded for a frame, or ``None`` when absent."""
        row = self._records.get((video_name, frame_index))
        return row.labels if row is not None else None

    def records_for_video(self, video_name: str) -> List[ResultRecord]:
        """All rows of one video, ordered by frame index."""
        rows = [row for (name, _), row in self._records.items() if name == video_name]
        return sorted(rows, key=lambda row: row.frame_index)

    def frames_with_label(self, video_name: str, label: str) -> List[int]:
        """Frame indices of a video where ``label`` was detected."""
        return [row.frame_index for row in self.records_for_video(video_name)
                if label in row.labels]

    def video_names(self) -> List[str]:
        """Names of all videos with at least one recorded frame."""
        return sorted({name for name, _ in self._records})

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        """Drop every record."""
        self._records.clear()


# --------------------------------------------------------------------- #
# Persistent store
# --------------------------------------------------------------------- #

#: How long a writer busy-waits on a locked database before giving up.
#: SQLite serialises writers; under WAL a blocked writer spins here instead
#: of surfacing ``database is locked`` to the fleet.
_BUSY_TIMEOUT_MS = 30_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    video_name  TEXT    NOT NULL,
    frame_index INTEGER NOT NULL,
    labels      TEXT    NOT NULL,
    content_hash TEXT   NOT NULL,
    PRIMARY KEY (video_name, frame_index)
);
CREATE TABLE IF NOT EXISTS runs (
    run_id      TEXT PRIMARY KEY,
    summary     TEXT NOT NULL,
    content_hash TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS outcomes (
    run_id        TEXT    NOT NULL,
    camera        TEXT    NOT NULL,
    edge_index    INTEGER NOT NULL,
    start_seconds REAL    NOT NULL,
    end_seconds   REAL    NOT NULL,
    content_hash  TEXT    NOT NULL,
    PRIMARY KEY (run_id, camera)
);
"""


def _canonical_labels(labels: Iterable[str]) -> str:
    """The canonical stored encoding of a label set (sorted JSON list)."""
    return json.dumps(sorted(as_label_set(labels)))


def _row_hash(*fields: object) -> str:
    """sha256 over the canonical field encoding — the row's content hash."""
    payload = "\x1f".join(repr(field) for field in fields)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SQLiteResultStore:
    """Persistent, multi-process-safe result store.

    Mirrors the :class:`ResultDatabase` query surface over a SQLite file
    so concurrent fleet processes share one sink: the journal runs in WAL
    mode (readers never block the writer), every mutation is one
    transaction, and blocked writers busy-wait instead of failing — two
    processes recording results for the same run interleave at row
    granularity and never corrupt each other's rows.  Every row stores a
    sha256 hash of its canonical content, checked on read-back by
    :meth:`verify_integrity`.

    Args:
        path: Database file (created on first use).  ``":memory:"`` gives
            a private in-memory database (handy in tests, obviously not
            shared across processes).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._connection = sqlite3.connect(path, timeout=_BUSY_TIMEOUT_MS / 1000.0)
        self._connection.execute(f"PRAGMA busy_timeout = {_BUSY_TIMEOUT_MS}")
        # WAL persists in the database file; setting it is idempotent.  It
        # is unsupported (and unnecessary) for in-memory databases.
        if path != ":memory:":
            self._connection.execute("PRAGMA journal_mode = WAL")
        self._connection.execute("PRAGMA synchronous = NORMAL")
        with self._connection:
            self._connection.executescript(_SCHEMA)

    # -- lifecycle ----------------------------------------------------- #

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        self._connection.close()

    def __enter__(self) -> "SQLiteResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- ResultDatabase-compatible surface ----------------------------- #

    def record(self, video_name: str, frame_index: int,
               labels: Iterable[str]) -> ResultRecord:
        """Insert (or overwrite) the labels of one frame, atomically."""
        if frame_index < 0:
            raise ClusterError("frame_index must be >= 0")
        label_set = as_label_set(labels)
        encoded = _canonical_labels(label_set)
        with self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO results "
                "(video_name, frame_index, labels, content_hash) "
                "VALUES (?, ?, ?, ?)",
                (video_name, int(frame_index), encoded,
                 _row_hash(video_name, int(frame_index), encoded)))
        return ResultRecord(video_name=video_name,
                            frame_index=int(frame_index), labels=label_set)

    def labels_for(self, video_name: str,
                   frame_index: int) -> Optional[LabelSet]:
        """Labels recorded for a frame, or ``None`` when absent."""
        row = self._connection.execute(
            "SELECT labels FROM results "
            "WHERE video_name = ? AND frame_index = ?",
            (video_name, frame_index)).fetchone()
        return as_label_set(json.loads(row[0])) if row is not None else None

    def records_for_video(self, video_name: str) -> List[ResultRecord]:
        """All rows of one video, ordered by frame index."""
        rows = self._connection.execute(
            "SELECT frame_index, labels FROM results "
            "WHERE video_name = ? ORDER BY frame_index",
            (video_name,)).fetchall()
        return [ResultRecord(video_name=video_name, frame_index=int(frame),
                             labels=as_label_set(json.loads(labels)))
                for frame, labels in rows]

    def frames_with_label(self, video_name: str, label: str) -> List[int]:
        """Frame indices of a video where ``label`` was detected."""
        return [row.frame_index for row in self.records_for_video(video_name)
                if label in row.labels]

    def video_names(self) -> List[str]:
        """Names of all videos with at least one recorded frame."""
        rows = self._connection.execute(
            "SELECT DISTINCT video_name FROM results ORDER BY video_name")
        return [name for (name,) in rows]

    def __len__(self) -> int:
        (count,) = self._connection.execute(
            "SELECT COUNT(*) FROM results").fetchone()
        return int(count)

    def clear(self) -> None:
        """Drop every record, run summary and outcome."""
        with self._connection:
            self._connection.execute("DELETE FROM results")
            self._connection.execute("DELETE FROM runs")
            self._connection.execute("DELETE FROM outcomes")

    # -- fleet-report round trip --------------------------------------- #

    def store_fleet_report(self, run_id: str,
                           report: "FleetReport") -> str:
        """Persist a fleet run's summary and per-camera outcomes.

        Stores the report's deterministic flat view (``as_dict``) plus the
        placement assignments as the run summary, and one row per camera
        outcome — everything the report-reading tools consume.  Re-storing
        the same ``run_id`` replaces the run atomically.

        Returns:
            The run summary's content hash.
        """
        summary = {
            "metrics": report.as_dict(),
            "assignments": dict(sorted(report.assignments.items())),
        }
        encoded = json.dumps(summary, sort_keys=True)
        run_hash = _row_hash(run_id, encoded)
        with self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO runs (run_id, summary, content_hash) "
                "VALUES (?, ?, ?)", (run_id, encoded, run_hash))
            self._connection.execute("DELETE FROM outcomes WHERE run_id = ?",
                                     (run_id,))
            for outcome in report.outcomes:
                camera = outcome.job.camera
                fields = (run_id, camera, int(outcome.edge_index),
                          float(outcome.start_seconds),
                          float(outcome.end_seconds))
                self._connection.execute(
                    "INSERT INTO outcomes (run_id, camera, edge_index, "
                    "start_seconds, end_seconds, content_hash) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    fields + (_row_hash(*fields),))
        return run_hash

    def run_ids(self) -> List[str]:
        """All stored run ids, sorted."""
        rows = self._connection.execute(
            "SELECT run_id FROM runs ORDER BY run_id")
        return [run_id for (run_id,) in rows]

    def report_summary(self, run_id: str) -> Optional[Dict[str, object]]:
        """The stored ``{"metrics": ..., "assignments": ...}`` of a run."""
        row = self._connection.execute(
            "SELECT summary FROM runs WHERE run_id = ?", (run_id,)).fetchone()
        return json.loads(row[0]) if row is not None else None

    def outcomes_for_run(self, run_id: str
                         ) -> List[Tuple[str, int, float, float]]:
        """``(camera, edge_index, start, end)`` rows of a run, by camera."""
        rows = self._connection.execute(
            "SELECT camera, edge_index, start_seconds, end_seconds "
            "FROM outcomes WHERE run_id = ? ORDER BY camera",
            (run_id,)).fetchall()
        return [(str(camera), int(edge), float(start), float(end))
                for camera, edge, start, end in rows]

    # -- integrity ----------------------------------------------------- #

    def verify_integrity(self) -> List[str]:
        """Recompute every row's content hash and report mismatches.

        Returns:
            Human-readable descriptions of tampered/corrupted rows (empty
            when the store is intact).
        """
        problems: List[str] = []
        for video, frame, labels, stored in self._connection.execute(
                "SELECT video_name, frame_index, labels, content_hash "
                "FROM results"):
            if _row_hash(video, int(frame), labels) != stored:
                problems.append(f"results row ({video!r}, {frame}) "
                                f"fails its content hash")
        for run_id, summary, stored in self._connection.execute(
                "SELECT run_id, summary, content_hash FROM runs"):
            if _row_hash(run_id, summary) != stored:
                problems.append(f"runs row {run_id!r} fails its content hash")
        for row in self._connection.execute(
                "SELECT run_id, camera, edge_index, start_seconds, "
                "end_seconds, content_hash FROM outcomes"):
            fields: Sequence[object] = (str(row[0]), str(row[1]), int(row[2]),
                                        float(row[3]), float(row[4]))
            if _row_hash(*fields) != row[5]:
                problems.append(f"outcomes row ({row[0]!r}, {row[1]!r}) "
                                f"fails its content hash")
        return problems
