"""The shared virtual-clock scheduler: event loop and service stations."""

from .scheduler import EventScheduler, ServiceStation, StationStats

__all__ = ["EventScheduler", "ServiceStation", "StationStats"]
