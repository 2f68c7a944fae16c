"""Dataset registry (Table I) and synthetic dataset builders."""

from .generator import DatasetInstance, build_dataset, build_split
from .registry import (ALL_DATASETS, LABELLED_DATASETS, TABLE_I, DatasetSpec,
                       all_datasets, get_dataset, labelled_datasets)

__all__ = [
    "DatasetInstance", "build_dataset", "build_split",
    "ALL_DATASETS", "LABELLED_DATASETS", "TABLE_I", "DatasetSpec",
    "all_datasets", "get_dataset", "labelled_datasets",
]
