"""Tests for the shared infrastructure: rng, config, logging, sizing."""

import importlib
import logging
import pkgutil

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.config import HardwareCalibration, SystemConfig
from repro.errors import ConfigurationError, SieveError
from repro.jpeg_sizing import raw_frame_bytes, resized_frame_bytes
from repro.logging_utils import ProgressReporter, configure_logging, get_logger, log_duration
from repro.rng import DEFAULT_SEED, derive_seed, make_rng, spawn_seeds


class TestRng:
    def test_default_seed_is_deterministic(self):
        assert make_rng().integers(0, 1000) == make_rng().integers(0, 1000)

    def test_same_labels_same_stream(self):
        a = make_rng(1, "camera", "noise")
        b = make_rng(1, "camera", "noise")
        assert np.array_equal(a.normal(size=8), b.normal(size=8))

    def test_different_labels_decorrelated(self):
        a = make_rng(1, "camera", "noise")
        b = make_rng(1, "camera", "events")
        assert not np.array_equal(a.normal(size=8), b.normal(size=8))

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, "x") == derive_seed(7, "x")
        assert derive_seed(7, "x") != derive_seed(7, "y")
        assert derive_seed(7, "x") != derive_seed(8, "x")

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_derive_seed_in_range(self, root, label):
        seed = derive_seed(root, label)
        assert 0 <= seed < 2**63

    def test_spawn_seeds(self):
        seeds = spawn_seeds(3, ["a", "b"])
        assert set(seeds) == {"a", "b"}
        assert seeds["a"] != seeds["b"]

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert make_rng(generator) is generator

    def test_default_seed_value(self):
        assert DEFAULT_SEED == 20200601


class TestConfig:
    def test_defaults_valid(self):
        config = SystemConfig()
        assert config.edge_cloud_bandwidth_mbps == 30.0
        assert config.hardware.seek_ms_per_frame_1080p == pytest.approx(0.43)

    def test_with_bandwidth(self):
        faster = SystemConfig().with_bandwidth(100.0)
        assert faster.edge_cloud_bandwidth_mbps == 100.0
        assert faster.camera_edge_bandwidth_mbps == SystemConfig().camera_edge_bandwidth_mbps

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(edge_cloud_bandwidth_mbps=0)

    @pytest.mark.parametrize("fields", [
        {"edge_cloud_bandwidth_mbps": float("nan")},
        {"camera_edge_bandwidth_mbps": float("nan")},
        {"edge_cloud_latency_ms": float("nan")},
        {"camera_edge_latency_ms": float("inf")},
        {"fleet_workers": 1.5},
        {"build_workers": float("nan")},
        {"nn_batch_size": 2.5},
        {"nn_input_resolution": (300,)},
        {"nn_input_resolution": "big"},
        {"nn_input_resolution": (300, float("nan"))},
        {"edge_cloud_bandwidth_mbps": "30"},
        {"fleet_workers": "2"},
    ])
    def test_malformed_values_raise_the_typed_error(self, fields):
        """``nan <= 0`` is false, so nan used to be accepted (and fractional
        counts with it); a string or a mis-shaped tuple escaped as a bare
        ``TypeError`` / ``ValueError`` out of the comparison itself."""
        with pytest.raises(ConfigurationError):
            SystemConfig(**fields)

    def test_whole_valued_floats_normalise_to_ints(self):
        config = SystemConfig(fleet_workers=2.0, nn_batch_size=8.0)
        assert (config.fleet_workers, config.nn_batch_size) == (2, 8)
        assert isinstance(config.fleet_workers, int)

    def test_invalid_calibration_rejected(self):
        with pytest.raises(ConfigurationError):
            HardwareCalibration(decode_ms_per_frame_1080p=-1)

    def test_calibration_as_dict(self):
        values = HardwareCalibration().as_dict()
        assert values["decode_ms_per_frame_1080p"] > values["seek_ms_per_frame_1080p"]

    def test_configuration_error_is_sieve_error(self):
        assert issubclass(ConfigurationError, SieveError)


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger("codec.encoder").name == "repro.codec.encoder"
        assert get_logger("repro.core").name == "repro.core"

    def test_configure_logging_idempotent(self):
        first = configure_logging(logging.DEBUG)
        second = configure_logging(logging.INFO)
        managed = [h for h in second.handlers if getattr(h, "_repro_managed", False)]
        assert first is second
        assert len(managed) == 1

    def test_log_duration_context(self, caplog):
        logger = get_logger("tests.duration")
        # configure_logging() stops propagation at the library root; re-enable
        # it so caplog's root handler sees the record.
        logging.getLogger("repro").propagate = True
        try:
            with caplog.at_level(logging.DEBUG, logger=logger.name):
                with log_duration(logger, "unit of work"):
                    pass
        finally:
            logging.getLogger("repro").propagate = False
        assert any("unit of work" in record.message for record in caplog.records)

    def test_progress_reporter_counts(self):
        reporter = ProgressReporter(get_logger("tests.progress"), total=10, label="x")
        for _ in range(10):
            reporter.update()
        assert reporter.count == 10


class TestSizing:
    def test_resized_frame_bytes_monotone_in_area(self):
        assert resized_frame_bytes(300, 300) > resized_frame_bytes(100, 100)

    def test_resized_frame_realistic_for_paper_thumbnail(self):
        size = resized_frame_bytes(300, 300)
        assert 10_000 < size < 80_000

    def test_raw_frame_bytes(self):
        assert raw_frame_bytes(10, 10, channels=3) == 300

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            resized_frame_bytes(0, 100)
        with pytest.raises(ConfigurationError):
            raw_frame_bytes(10, -1)


class TestPublicSurface:
    """What ``ruff`` F822/F401 would check, for containers without ruff: a
    deletion that leaves a dangling re-export fails here."""

    PACKAGES = ["repro"] + sorted(
        f"repro.{module.name}"
        for module in pkgutil.iter_modules(repro.__path__) if module.ispkg)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_resolves(self, package):
        module = importlib.import_module(package)
        names = list(module.__all__)
        assert sorted(set(names)) == sorted(names), "duplicate in __all__"
        assert [name for name in names if not hasattr(module, name)] == []
        namespace = {}
        exec(f"from {package} import *", namespace)
        assert set(names) <= set(namespace)
