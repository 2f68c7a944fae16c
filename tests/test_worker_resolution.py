"""Worker-count settings are whole numbers >= 1; anything else, ``0``
and ``True`` included, is a ``ConfigurationError``.  One validator,
:func:`repro.config.whole_number`, holds every count in the library to
the same rule, each with its own error class and least value."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig, whole_number
from repro.errors import ConfigurationError, FaultError


class TestWorkerCount:
    def test_positive_passes_through(self):
        assert whole_number(5, "build_workers", least=1) == 5

    def test_whole_float_is_normalised(self):
        count = whole_number(2.0, "build_workers", least=1)
        assert count == 2 and type(count) is int

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "2", None, True,
                                         float("nan"), float("inf")])
    def test_malformed_counts_rejected(self, workers):
        with pytest.raises(ConfigurationError):
            whole_number(workers, "build_workers", least=1)

    def test_system_config_uses_it(self):
        assert SystemConfig(build_workers=3).build_workers == 3
        with pytest.raises(ConfigurationError, match="build_workers"):
            SystemConfig(build_workers=0)

    def test_error_class_and_least_are_the_callers(self):
        assert whole_number(0, "edge_index", FaultError, 0) == 0
        with pytest.raises(FaultError, match="edge_index must be >= 0"):
            whole_number(-1, "edge_index", FaultError, 0)
        with pytest.raises(FaultError, match="edge_index"):
            whole_number(False, "edge_index", FaultError, 0)
