"""Work-stealing across edge shards: a deterministic claim protocol.

The static decomposition shards edge tasks round-robin over the pool
workers, so one unlucky worker can end up with every heavy edge while the
rest sit idle — at fleet scale the makespan is the *worst* shard, not the
mean.  This module replaces the static assignment with a shared task
queue: edge tasks are ordered deterministically (longest-first, the LPT
heuristic), and idle workers *claim* the next task from a shared cursor.

The claim protocol is a single 8-byte counter in a file, advanced under an
exclusive ``flock``: claim ``k`` hands out queue position ``k``, so the
*order in which tasks leave the queue* is fixed by the queue itself, and
only the claimant varies with real-time scheduling.  Because the fleet
merge keys every result by edge index, the report is bit-identical no
matter which worker simulated which edge — the parity suite runs the same
fleet with stealing on and off and compares reports field by field.

Every claim is recorded.  The merged :class:`StealLog` is the run's
provenance: it says which worker simulated which edge in which claim
order, serialises to JSON for the sweep artifacts, and can be *replayed* —
:func:`StealLog.assignment` turns a recorded log back into a static
per-worker task list, so a rerun reproduces the recorded claim pattern
exactly (and, by the parity contract, the same report).

When ``flock`` is unavailable (non-POSIX platforms) the fleet falls back
to the static shards; ``stealing_available()`` is the gate.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ClusterError

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Width of the claim cursor in bytes (one unsigned little-endian counter).
_CURSOR_BYTES = 8


def stealing_available() -> bool:
    """Whether the flock-based claim protocol can run on this platform."""
    return fcntl is not None


class ClaimBoard:
    """The shared task queue's cursor, claimable from any process.

    Args:
        path: Cursor file path.  The parent creates the file with
            :meth:`create`; workers open it by path (paths, unlike lock
            objects, pickle across any pool start method).
    """

    def __init__(self, path: str) -> None:
        self.path = path

    @classmethod
    def create(cls, num_tasks: int, directory: Optional[str] = None
               ) -> "ClaimBoard":
        """Create a fresh board with ``num_tasks`` claimable positions."""
        if num_tasks < 0:
            raise ClusterError(f"num_tasks must be >= 0, got {num_tasks}")
        if not stealing_available():
            raise ClusterError("work stealing needs fcntl.flock (POSIX)")
        handle, path = tempfile.mkstemp(prefix="repro-claims-",
                                        dir=directory)
        with os.fdopen(handle, "wb") as stream:
            stream.write((0).to_bytes(_CURSOR_BYTES, "little"))
            stream.write(int(num_tasks).to_bytes(_CURSOR_BYTES, "little"))
        return cls(path)

    def claim_next(self) -> Optional[int]:
        """Atomically claim the next queue position (``None`` when drained)."""
        with open(self.path, "r+b") as stream:
            fcntl.flock(stream.fileno(), fcntl.LOCK_EX)
            try:
                cursor = int.from_bytes(stream.read(_CURSOR_BYTES), "little")
                limit = int.from_bytes(stream.read(_CURSOR_BYTES), "little")
                if cursor >= limit:
                    return None
                stream.seek(0)
                stream.write((cursor + 1).to_bytes(_CURSOR_BYTES, "little"))
                # The write is buffered: it must reach the file before the
                # lock goes, or the next claimant reads the old cursor and
                # the same position is handed out twice.
                stream.flush()
                return cursor
            finally:
                fcntl.flock(stream.fileno(), fcntl.LOCK_UN)

    def remove(self) -> None:
        """Delete the cursor file (idempotent)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


@dataclass(frozen=True)
class ClaimRecord:
    """One claim: queue position ``claim_seq`` went to ``worker_slot``.

    Attributes:
        claim_seq: Position in the shared queue (0-based, dense).
        edge_index: The edge task at that queue position.
        worker_slot: The pool worker that claimed (and simulated) it.
    """

    claim_seq: int
    edge_index: int
    worker_slot: int


@dataclass(frozen=True)
class StealLog:
    """The complete, ordered claim history of one fleet run.

    Attributes:
        records: Claims ordered by ``claim_seq`` (dense from 0).
        num_workers: Pool workers that participated.
    """

    records: Tuple[ClaimRecord, ...]
    num_workers: int

    def __post_init__(self) -> None:
        sequences = [record.claim_seq for record in self.records]
        if sequences != list(range(len(sequences))):
            raise ClusterError(
                f"steal log claim sequences must be dense from 0, "
                f"got {sequences}")

    def assignment(self) -> Dict[int, int]:
        """``{edge_index: worker_slot}`` — the replayable static mapping."""
        return {record.edge_index: record.worker_slot
                for record in self.records}

    def tasks_of(self, worker_slot: int) -> List[int]:
        """Edge indices ``worker_slot`` claimed, in claim order."""
        return [record.edge_index for record in self.records
                if record.worker_slot == worker_slot]

    @property
    def steals(self) -> int:
        """Claims that deviate from the static round-robin assignment.

        The baseline the dynamic protocol replaces hands queue position
        ``k`` to worker ``k % num_workers``; every claim that landed
        elsewhere is a steal.
        """
        return sum(1 for record in self.records
                   if record.worker_slot
                   != record.claim_seq % max(self.num_workers, 1))

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (sweep artifacts, CI uploads)."""
        return {
            "num_workers": self.num_workers,
            "claims": [[record.claim_seq, record.edge_index,
                        record.worker_slot] for record in self.records],
        }

    def to_json(self) -> str:
        """The log as a JSON document."""
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StealLog":
        """Rebuild a log from :meth:`as_dict` output."""
        records = tuple(
            ClaimRecord(claim_seq=int(seq), edge_index=int(edge),
                        worker_slot=int(slot))
            for seq, edge, slot in payload["claims"])  # type: ignore[index]
        return cls(records=records,
                   num_workers=int(payload["num_workers"]))  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, document: str) -> "StealLog":
        """Rebuild a log from :meth:`to_json` output."""
        return cls.from_dict(json.loads(document))


def merge_claims(per_worker: Sequence[Tuple[int, Sequence[Tuple[int, int]]]],
                 num_workers: int) -> StealLog:
    """Merge workers' ``(claim_seq, edge_index)`` lists into one log.

    Args:
        per_worker: ``(worker_slot, [(claim_seq, edge_index), ...])`` as
            returned by each shard worker.
        num_workers: Pool size (recorded for the round-robin baseline).
    """
    records = [ClaimRecord(claim_seq=seq, edge_index=edge, worker_slot=slot)
               for slot, claims in per_worker for seq, edge in claims]
    records.sort(key=lambda record: record.claim_seq)
    return StealLog(records=tuple(records), num_workers=num_workers)


def queue_order(task_costs: Sequence[float]) -> List[int]:
    """The shared queue's task order: heaviest first, index breaking ties.

    Longest-processing-time-first is what makes stealing beat the static
    shards: the expensive edges leave the queue while many workers are
    still free, and the cheap tail backfills the stragglers.  The order is
    a pure function of the (deterministic) cost estimates, so the queue —
    and therefore the claim-sequence → edge mapping — is identical on
    every run.
    """
    return sorted(range(len(task_costs)),
                  key=lambda index: (-float(task_costs[index]), index))
