"""Simulated 3-tier cluster: cost model, fleet orchestration, result store.

The stage chain the fleet drivers share lives in :mod:`repro.cluster.topology`.
"""

from .costmodel import CostModel
from .fleet import (CameraJob, FleetOrchestrator, FleetReport, JobOutcome,
                    PlacementPolicy, TierReport)
from .resultdb import ResultDatabase, ResultRecord

__all__ = [
    "CostModel",
    "CameraJob", "FleetOrchestrator", "FleetReport", "JobOutcome",
    "PlacementPolicy", "TierReport",
    "ResultDatabase", "ResultRecord",
]
