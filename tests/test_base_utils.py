"""Tests for the shared infrastructure: rng, config, logging, sizing."""

import importlib
from dataclasses import replace
import logging
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.config import (PRECISION_MODES, HardwareCalibration,
                          SystemConfig, validate_precision)
from repro.errors import ConfigurationError, SieveError
from repro.faults import FaultPlan
from repro.jpeg_sizing import resized_frame_bytes
from repro.logging_utils import configure_logging, get_logger
from repro.rng import DEFAULT_SEED, derive_seed, make_rng


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

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert make_rng(generator) is generator

    def test_default_seed_value(self):
        assert DEFAULT_SEED == 20200601

    @pytest.mark.parametrize("seed", [1.5, True, False, "x", "3", math.nan,
                                      math.inf, None, [1], np.float64(0.5)])
    def test_derive_seed_refuses_what_is_not_a_whole_number(self, seed):
        """Regression: ``int(seed)`` made ``1.5`` and ``True`` seed 1, and
        ``"x"`` and ``nan`` raised a bare ValueError."""
        with pytest.raises(ConfigurationError, match="seed"):
            derive_seed(seed, "camera")

    @pytest.mark.parametrize("seed", [1.5, True, "x", math.nan])
    @pytest.mark.parametrize("labels", [(), ("camera",)])
    def test_make_rng_refuses_what_is_not_a_whole_number(self, seed, labels):
        with pytest.raises(ConfigurationError, match="seed"):
            make_rng(seed, *labels)

    def test_a_negative_seed_needs_labels_to_derive_from(self):
        """``numpy`` refused ``-1`` with a bare ValueError."""
        with pytest.raises(ConfigurationError, match="seed"):
            make_rng(-1)
        assert np.array_equal(make_rng(-1, "camera").normal(size=4),
                              make_rng(-1, "camera").normal(size=4))

    @pytest.mark.parametrize("integer", [np.int64, np.uint32, np.int8, int])
    def test_numpy_integer_seeds_stay_legal(self, integer):
        assert derive_seed(integer(7), "x") == derive_seed(7, "x")
        assert make_rng(integer(7)).integers(0, 2**30) == \
            make_rng(7).integers(0, 2**30)
        assert make_rng(integer(7), "x").integers(0, 2**30) == \
            make_rng(7, "x").integers(0, 2**30)

    @pytest.mark.parametrize("seed", [1.5, True, "x", math.nan])
    def test_a_seeded_consumer_inherits_the_check(self, seed):
        """``FaultPlan.seeded(1.5, ...)`` drew seed 1's storm."""
        with pytest.raises(ConfigurationError, match="seed"):
            FaultPlan.seeded(seed, num_edge_servers=3)

    def test_a_whole_float_seed_is_its_integer(self):
        # What ``int(seed)`` gave before, so no seeded stream moves.
        assert derive_seed(7.0, "x") == derive_seed(7, "x")


class TestConfig:
    def test_defaults_valid(self):
        config = SystemConfig()
        assert config.edge_cloud_bandwidth_mbps == 30.0
        assert config.hardware.seek_ms_per_frame_1080p == pytest.approx(0.43)

    def test_replace_bandwidth(self):
        faster = replace(SystemConfig(), edge_cloud_bandwidth_mbps=100.0)
        assert faster.edge_cloud_bandwidth_mbps == 100.0
        assert faster.camera_edge_bandwidth_mbps == SystemConfig().camera_edge_bandwidth_mbps

    def test_replace_preserves_build_workers(self):
        config = replace(SystemConfig(build_workers=3), edge_cloud_bandwidth_mbps=10.0)
        assert config.build_workers == 3
        assert config.edge_cloud_bandwidth_mbps == 10.0

    def test_replace_revalidates(self):
        with pytest.raises(ConfigurationError):
            replace(SystemConfig(), edge_cloud_bandwidth_mbps=float("nan"))

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(edge_cloud_bandwidth_mbps=0)

    @pytest.mark.parametrize("fields", [
        {"edge_cloud_bandwidth_mbps": float("nan")},
        {"camera_edge_bandwidth_mbps": float("nan")},
        {"edge_cloud_latency_ms": float("nan")},
        {"camera_edge_latency_ms": float("inf")},
        {"build_workers": 1.5},
        {"build_workers": float("nan")},
        {"nn_batch_size": 2.5},
        {"nn_input_resolution": (300,)},
        {"nn_input_resolution": "big"},
        {"nn_input_resolution": (300, float("nan"))},
        {"edge_cloud_bandwidth_mbps": "30"},
        {"build_workers": "2"},
    ])
    def test_malformed_values_raise_the_typed_error(self, fields):
        """``nan <= 0`` is false, so nan used to be accepted (and fractional
        counts with it); a string or a mis-shaped tuple escaped as a bare
        ``TypeError`` / ``ValueError`` out of the comparison itself."""
        with pytest.raises(ConfigurationError):
            SystemConfig(**fields)

    def test_whole_valued_floats_normalise_to_ints(self):
        config = SystemConfig(build_workers=2.0, nn_batch_size=8.0)
        assert (config.build_workers, config.nn_batch_size) == (2, 8)
        assert isinstance(config.build_workers, int)

    def test_invalid_calibration_rejected(self):
        with pytest.raises(ConfigurationError):
            HardwareCalibration(decode_ms_per_frame_1080p=-1)

    @pytest.mark.parametrize("name, value", [
        ("cloud_speed_factor", float("inf")),
        ("cloud_speed_factor", float("nan")),
        ("edge_nn_ms_per_frame", float("nan")),
        ("seek_ms_per_frame_1080p", float("inf")),
        ("decode_ms_per_frame_1080p", "11"),
        ("edge_speed_factor", None),
        ("edge_speed_factor", True),
    ])
    def test_calibration_values_are_positive_finite_reals(self, name, value):
        """``cloud_speed_factor=inf`` made every cloud cost 0.0 and nan
        made costs nan; a string raised a bare TypeError."""
        with pytest.raises(ConfigurationError, match=name):
            HardwareCalibration(**{name: value})

    def test_calibration_decode_costs_more_than_seek(self):
        calibration = HardwareCalibration()
        assert (calibration.decode_ms_per_frame_1080p
                > calibration.seek_ms_per_frame_1080p)

    def test_configuration_error_is_sieve_error(self):
        assert issubclass(ConfigurationError, SieveError)


class TestPrecision:
    """``SystemConfig.precision`` is checked against the NN's numeric modes."""

    def test_default_is_exact(self):
        assert SystemConfig().precision == "exact"

    def test_unknown_precision_rejected(self):
        assert set(PRECISION_MODES) == {"exact", "fast"}
        with pytest.raises(ConfigurationError):
            SystemConfig(precision="fp16")
        with pytest.raises(ConfigurationError):
            validate_precision("double")

    def test_replace_preserves_precision(self):
        config = replace(SystemConfig(precision="fast"),
                         edge_cloud_bandwidth_mbps=10.0)
        assert config.precision == "fast"


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



class TestSizing:
    def test_resized_frame_bytes_monotone_in_area(self):
        assert resized_frame_bytes(300, 300) > resized_frame_bytes(100, 100)

    def test_resized_frame_realistic_for_paper_thumbnail(self):
        size = resized_frame_bytes(300, 300)
        assert 10_000 < size < 80_000

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            resized_frame_bytes(0, 100)


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
