"""Dataset registry (Table I) and synthetic dataset builders."""

from .generator import DatasetInstance, build_dataset
from .registry import (ALL_DATASETS, LABELLED_DATASETS, TABLE_I, DatasetSpec,
                       all_datasets, get_dataset)

__all__ = [
    "DatasetInstance", "build_dataset",
    "ALL_DATASETS", "LABELLED_DATASETS", "TABLE_I", "DatasetSpec",
    "all_datasets", "get_dataset",
]
