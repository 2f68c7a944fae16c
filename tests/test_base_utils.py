"""Tests for the shared infrastructure: rng, config, logging, sizing."""

import importlib
from dataclasses import replace
from fractions import Fraction
import logging
import math
import operator
import pkgutil
from numbers import Real

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.config import (PRECISION_MODES, HardwareCalibration,
                          SystemConfig, real_number, validate_precision,
                          whole_number)
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
        {"edge_cloud_bandwidth_mbps": True},
        {"camera_edge_latency_ms": True},
        {"nn_input_resolution": (True, 300)},
        {"nn_input_resolution": 300},
    ])
    def test_malformed_values_raise_the_typed_error(self, fields):
        """``nan <= 0`` is false, so nan used to be accepted (and fractional
        counts with it); a string or a mis-shaped tuple escaped as a bare
        ``TypeError`` / ``ValueError`` out of the comparison itself.  A
        bool is no number of megabits, milliseconds or pixels: ``True``
        used to be taken as 1."""
        with pytest.raises(ConfigurationError):
            SystemConfig(**fields)

    def test_whole_valued_floats_normalise_to_ints(self):
        config = SystemConfig(build_workers=2.0, nn_batch_size=8.0)
        assert (config.build_workers, config.nn_batch_size) == (2, 8)
        assert isinstance(config.build_workers, int)

    @pytest.mark.parametrize("fields", [
        {"seed": "x"}, {"seed": 1.5}, {"seed": True}, {"seed": math.nan},
        {"seed": None}, {"hardware": 5}, {"hardware": None},
        {"hardware": SystemConfig()},
    ])
    def test_seed_and_hardware_are_checked(self, fields):
        """Both were accepted, to surface only where first used: a seed
        must be a whole number, as ``make_rng`` takes it, and hardware a
        ``HardwareCalibration``."""
        with pytest.raises(ConfigurationError, match=next(iter(fields))):
            SystemConfig(**fields)

    def test_a_numpy_seed_stays_legal(self):
        assert SystemConfig(seed=np.int64(7)).seed == 7

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


#: Bounds drawn for the validators: finite and infinite reals of each kind.
_BOUND = st.one_of(st.integers(-3, 3), st.sampled_from(
    [-math.inf, math.inf, -0.0, 0.5, 1e-300, Fraction(1, 3)]),
    st.floats(allow_nan=False))
_BOUNDS = st.fixed_dictionaries({}, optional={
    name: _BOUND for name in ("least", "above", "most", "below")})
#: Values: floats of every class, ints, bools, numpy scalars and fractions.
_VALUE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     -5e-324, 2.0 ** 63, "1", None]),
    st.floats(), st.integers(), st.booleans(), st.fractions(),
    st.floats().map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1).map(
        np.int64), st.booleans().map(np.bool_))
_HOLDS = {"least": operator.ge, "above": operator.gt, "most": operator.le,
          "below": operator.lt}


def _within(value, bounds) -> bool:
    """The chained comparisons the bound keywords replaced."""
    return all(_HOLDS[name](value, bound) for name, bound in bounds.items())


class TestBoundedValidators:
    """``real_number`` and ``whole_number`` accept exactly the non-bool
    reals that meet every bound, and nothing else."""

    @given(_VALUE, _BOUNDS)
    def test_real_number_accepts_exactly_the_bounded_reals(self, value,
                                                           bounds):
        legal = (isinstance(value, Real) and not isinstance(value, bool)
                 and _within(value, bounds))
        if legal:
            assert real_number(value, "v", **bounds) is value
        else:
            with pytest.raises(ConfigurationError, match="v must be"):
                real_number(value, "v", **bounds)

    @given(_VALUE, _BOUNDS)
    def test_whole_number_accepts_exactly_the_bounded_whole_reals(
            self, value, bounds):
        legal = (isinstance(value, Real) and not isinstance(value, bool)
                 and math.isfinite(value) and value == int(value)
                 and _within(value, bounds))
        if legal:
            integral = whole_number(value, "v", **bounds)
            assert type(integral) is int and integral == value
        else:
            with pytest.raises(ConfigurationError, match="v must be"):
                whole_number(value, "v", **bounds)

    @pytest.mark.parametrize("bounds", [
        {"least": 0}, {"above": 0}, {"most": 1}, {"below": math.inf}])
    def test_any_bound_refuses_nan(self, bounds):
        assert math.isnan(real_number(math.nan, "v"))
        with pytest.raises(ConfigurationError, match="v must be"):
            real_number(math.nan, "v", **bounds)

    def test_the_caller_names_the_error_and_the_message_the_bound(self):
        with pytest.raises(SieveError, match=r"^v must be >= 0 and < inf, "
                                             r"got -1$") as caught:
            real_number(-1, "v", type("Oops", (SieveError,), {}), least=0,
                        below=math.inf)
        assert type(caught.value).__name__ == "Oops"


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
