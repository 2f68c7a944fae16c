"""Simulated network links.

The paper controls the edge -> cloud bandwidth to 30 Mbps to emulate an
average WAN connection.  :class:`NetworkLink` models a point-to-point link
with a fixed bandwidth and propagation latency and keeps an account of every
transfer, which is what the data-transfer evaluation (Figure 5) reads out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import List

from ..errors import NetworkError


@dataclass(slots=True)
class TransferRecord:
    """One completed transfer over a link.

    Attributes:
        description: What was transferred (e.g. ``"iframes:jackson_square"``).
        size_bytes: Payload size.
        duration_seconds: Simulated transfer duration.
    """

    description: str
    size_bytes: int
    duration_seconds: float


@dataclass
class NetworkLink:
    """A point-to-point link with fixed bandwidth and latency.

    Attributes:
        name: Link name (``"camera-edge"``, ``"edge-cloud"``).
        bandwidth_mbps: Link bandwidth in megabits per second.
        latency_ms: One-way propagation latency in milliseconds.
    """

    name: str
    bandwidth_mbps: float
    latency_ms: float = 0.0
    transfers: List[TransferRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Chained comparisons so nan (which passes ``<= 0``) and inf (a
        # link that moves anything in 0.0 s) are refused too.
        if not 0 < self.bandwidth_mbps < inf:
            raise NetworkError(
                f"bandwidth must be positive and finite, "
                f"got {self.bandwidth_mbps}")
        if not 0 <= self.latency_ms < inf:
            raise NetworkError(
                f"latency must be finite and >= 0, got {self.latency_ms}")

    def transfer_seconds(self, size_bytes: int) -> float:
        """Time to move ``size_bytes`` over the link (latency included)."""
        if not 0 <= size_bytes < inf:
            raise NetworkError(
                f"size_bytes must be finite and >= 0, got {size_bytes}")
        return (size_bytes * 8) / (self.bandwidth_mbps * 1e6) + self.latency_ms / 1e3

    def transfer(self, size_bytes: int, description: str = "") -> TransferRecord:
        """Record a transfer and return its accounting entry."""
        # Duration first: it is what refuses a size int() would choke on.
        duration = self.transfer_seconds(size_bytes)
        record = TransferRecord(description, int(size_bytes), duration)
        self.transfers.append(record)
        return record

    @property
    def total_bytes(self) -> int:
        """Total bytes moved over the link so far."""
        return sum(record.size_bytes for record in self.transfers)

    @property
    def total_seconds(self) -> float:
        """Total simulated transfer time so far."""
        return sum(record.duration_seconds for record in self.transfers)

    def reset(self) -> None:
        """Forget all recorded transfers."""
        self.transfers.clear()
