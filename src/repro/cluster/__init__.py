"""Simulated 3-tier cluster: cost model, fleet orchestration, result store.

The stage chain the fleet drivers share lives in :mod:`repro.cluster.topology`.
"""

from .costmodel import CostModel
from .fleet import (CameraJob, FleetOrchestrator, FleetReport, JobOutcome,
                    PlacementPolicy, TierReport, sweep_edge_counts)
from .resultdb import ResultDatabase, ResultRecord, SQLiteResultStore

__all__ = [
    "CostModel",
    "CameraJob", "FleetOrchestrator", "FleetReport", "JobOutcome",
    "PlacementPolicy", "TierReport", "sweep_edge_counts",
    "ResultDatabase", "ResultRecord", "SQLiteResultStore",
]
