"""Experiment harnesses regenerating every table and figure of the paper."""

from . import figure3, figure4, figure5, table1, table2, table3
from .common import (ExperimentConfig, PreparedDataset, clear_prepared_cache,
                     format_table, prepare_dataset, prepare_datasets,
                     prepare_workload)

__all__ = [
    "figure3", "figure4", "figure5", "table1", "table2", "table3",
    "ExperimentConfig", "PreparedDataset", "clear_prepared_cache",
    "format_table", "prepare_dataset", "prepare_datasets", "prepare_workload",
]
