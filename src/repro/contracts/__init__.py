"""Numeric-contract subsystem: tolerance budgets for the float32 fast paths.

See :mod:`repro.contracts.contract` for the design discussion.  The default
system precision is ``"exact"`` (bit-identical hot paths); selecting
``SystemConfig(precision="fast")`` routes the NN engine and the motion
search through float32 kernels whose deviation from the exact path is
bounded by :data:`FAST_CONTRACT` and pinned by the differential harness in
``tests/contracts/``.
"""

from .contract import (EXACT_CONTRACT, FAST_CONTRACT, NumericContract,
                       PRECISION_ENV, PRECISION_EXACT, PRECISION_FAST,
                       PRECISION_MODES, ToleranceBudget, activation_dtype,
                       resolve_contract, selection_agreement,
                       validate_precision)

__all__ = [
    "EXACT_CONTRACT", "FAST_CONTRACT", "NumericContract",
    "PRECISION_ENV", "PRECISION_EXACT", "PRECISION_FAST", "PRECISION_MODES",
    "ToleranceBudget", "activation_dtype",
    "resolve_contract", "selection_agreement", "validate_precision",
]
