"""Table I: the dataset inventory.

This experiment does not measure anything; it regenerates the paper's dataset
table from the registry and verifies that the synthetic stand-ins expose the
same object classes and event structure the descriptions promise.
"""

from __future__ import annotations

from typing import Dict, List

from ..datasets.registry import all_datasets
from .common import ExperimentConfig, WorkloadBuilder, format_table


def run(config: ExperimentConfig = ExperimentConfig(),
        verify_synthetic: bool = False) -> List[Dict[str, object]]:
    """Regenerate Table I.

    Args:
        config: Footage scale used when ``verify_synthetic`` is on.
        verify_synthetic: Also render a short clip per dataset and report the
            labels its ground truth actually contains.  The clips come from
            the in-process prepared-dataset cache (split ``"full"``, the
            same clips Figures 4/5 render), so a repeat run renders nothing.

    Returns:
        One row per dataset with the paper's columns (plus synthetic-check
        columns when requested).
    """
    specs = list(all_datasets())
    prepared = {}
    if verify_synthetic:
        prepared = WorkloadBuilder(config).prepare_datasets(
            [spec.name for spec in specs], split="full")
    rows: List[Dict[str, object]] = []
    for spec in specs:
        row: Dict[str, object] = {
            "dataset": spec.name,
            "objects": ", ".join(spec.objects),
            "resolution": str(spec.nominal_resolution),
            "fps": spec.fps,
            "duration_hours": spec.paper_duration_hours,
            "labels": "Yes" if spec.has_labels else "No",
            "description": spec.description,
        }
        if verify_synthetic:
            timeline = prepared[spec.name].timeline
            observed = sorted(timeline.object_labels)
            row["synthetic_labels"] = ", ".join(observed)
            row["synthetic_events"] = timeline.num_events
        rows.append(row)
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    """Format the Table I rows as text."""
    columns = ["dataset", "objects", "resolution", "fps", "duration_hours", "labels"]
    if rows and "synthetic_events" in rows[0]:
        columns += ["synthetic_labels", "synthetic_events"]
    return format_table(rows, columns, title="Table I: datasets")
