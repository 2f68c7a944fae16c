"""The numeric-contract objects and their wiring into SystemConfig."""

from dataclasses import replace

import numpy as np
import pytest

from repro import SystemConfig
from repro.contracts import (EXACT_CONTRACT, FAST_CONTRACT, NumericContract,
                             PRECISION_ENV, PRECISION_MODES, ToleranceBudget,
                             activation_dtype, resolve_contract,
                             selection_agreement, validate_precision)
from repro.contracts.contract import agreement_fraction
from repro.errors import ConfigurationError


class TestToleranceBudget:
    def test_margin_combines_atol_and_rtol(self):
        budget = ToleranceBudget(atol=0.5, rtol=0.1)
        assert budget.margin(np.array([0.0, 10.0])) == pytest.approx([0.5, 1.5])

    def test_values_within(self):
        budget = ToleranceBudget(atol=0.1)
        assert budget.values_within([1.0, 2.0], [1.05, 1.95])
        assert not budget.values_within([1.0, 2.0], [1.2, 2.0])

    def test_max_violation_signed(self):
        budget = ToleranceBudget(atol=0.1)
        assert budget.max_violation([1.0], [1.05]) < 0
        assert budget.max_violation([1.0], [1.3]) == pytest.approx(0.2)
        assert budget.max_violation(np.empty(0), np.empty(0)) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ToleranceBudget(atol=-1.0)
        with pytest.raises(ConfigurationError):
            ToleranceBudget(min_agreement=1.5)


class TestAgreementHelpers:
    def test_agreement_fraction_sequences(self):
        assert agreement_fraction(["a", "b"], ["a", "c"]) == 0.5
        assert agreement_fraction([], []) == 1.0
        with pytest.raises(ConfigurationError):
            agreement_fraction(["a"], ["a", "b"])

    def test_agreement_fraction_vector_fields(self):
        exact = np.zeros((2, 2, 2), dtype=np.int16)
        fast = exact.copy()
        fast[0, 0] = (1, 0)  # one block's vector differs
        assert agreement_fraction(exact, fast) == pytest.approx(0.75)

    def test_selection_agreement_is_jaccard(self):
        assert selection_agreement([1, 2, 3], [2, 3, 4]) == pytest.approx(0.5)
        assert selection_agreement([], []) == 1.0


class TestContracts:
    def test_exact_contract_is_degenerate(self):
        assert EXACT_CONTRACT.is_exact
        assert EXACT_CONTRACT.nn_logits.atol == 0.0
        assert EXACT_CONTRACT.sad_argmin.min_agreement == 1.0

    def test_fast_contract_budgets_positive(self):
        assert not FAST_CONTRACT.is_exact
        assert FAST_CONTRACT.nn_logits.atol > 0
        assert FAST_CONTRACT.nn_logits.rtol > 0
        assert 0 < FAST_CONTRACT.nn_classes.min_agreement < 1
        assert 0 < FAST_CONTRACT.sad_argmin.min_agreement < 1
        assert FAST_CONTRACT.sad_tie.atol > 0

    def test_resolution(self):
        assert resolve_contract("exact") is EXACT_CONTRACT
        assert resolve_contract("fast") is FAST_CONTRACT
        with pytest.raises(ConfigurationError):
            resolve_contract("fp16")

    def test_activation_dtype(self):
        assert activation_dtype("exact") is np.float64
        assert activation_dtype("fast") is np.float32

    def test_describe_mentions_mode(self):
        assert "exact" in EXACT_CONTRACT.describe()
        assert "fast" in FAST_CONTRACT.describe()

    def test_unknown_mode_rejected_in_contract(self):
        with pytest.raises(ConfigurationError):
            NumericContract(mode="fp16", nn_logits=ToleranceBudget(),
                            nn_classes=ToleranceBudget(),
                            detections=ToleranceBudget(),
                            sad_values=ToleranceBudget(),
                            sad_argmin=ToleranceBudget(),
                            sad_tie=ToleranceBudget())


class TestSystemConfigPrecision:
    def test_default_is_exact(self, monkeypatch):
        monkeypatch.delenv(PRECISION_ENV, raising=False)
        config = SystemConfig()
        assert config.precision == "exact"
        assert config.contract is EXACT_CONTRACT

    def test_fast_selects_fast_contract(self):
        config = SystemConfig(precision="fast")
        assert config.contract is FAST_CONTRACT

    def test_unknown_precision_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(precision="fp16")
        with pytest.raises(ConfigurationError):
            validate_precision("double")

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(PRECISION_ENV, "fast")
        assert SystemConfig().precision == "fast"
        # An explicit argument always wins over the environment.
        assert SystemConfig(precision="exact").precision == "exact"
        monkeypatch.setenv(PRECISION_ENV, "fp16")
        with pytest.raises(ConfigurationError):
            SystemConfig()

    def test_replace_preserves_precision(self):
        config = replace(SystemConfig(precision="fast"), edge_cloud_bandwidth_mbps=10.0)
        assert config.precision == "fast"

    def test_precision_modes_exported(self):
        assert set(PRECISION_MODES) == {"exact", "fast"}
