"""Simulated network substrate: accounting links and contended links."""

from .contention import ContendedLink
from .link import NetworkLink, TransferRecord

__all__ = ["ContendedLink", "NetworkLink", "TransferRecord"]
