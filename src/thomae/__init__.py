"""Exact construction and verification of Euler- and Thomae-type
transformations for generalized hypergeometric series whose parameter
pairs differ by positive integers.

The package builds the parametric weight polynomials attached to such
parameter pairs, applies the two argument transformations and the two
unit-argument transformations, evaluates the resulting series (exactly
when terminating, with controlled error bounds otherwise), and verifies
every identity against independent oracles.
"""

from .errors import ConditionCheck, NonConvergenceError, PreconditionError, ThomaeError
from .exact import (
    ParamPairs,
    as_rational,
    c_coefficients,
    c_via_terminating_series,
    pochhammer,
    pochhammer_product,
    sigma_coefficients,
)
from .polynomials import (
    RationalPolynomial,
    ZeroSet,
    build_G,
    build_Q,
    build_Qhat,
    find_zeros,
)
from .series import (
    EvalResult,
    SeriesSpec,
    WeightedSeriesSpec,
    eval_numeric,
    eval_terminating,
    gamma_ratio,
    parametric_excess,
)
from .transforms import (
    GammaRatioPrefactor,
    PochhammerRatioPrefactor,
    PowerOfOneMinusX,
    TransformResult,
    contract_pairs,
    euler1,
    euler2,
    thomae,
    thomae_terminating,
)
from .verification import (
    CaseProfile,
    GeneratedCase,
    GeneratedCases,
    SweepSummary,
    VerificationReport,
    beta_integral_oracle,
    generate_cases,
    terminating_sweep,
    verify_transform,
)

__version__ = "0.1.0"

__all__ = [
    "CaseProfile",
    "ConditionCheck",
    "EvalResult",
    "GammaRatioPrefactor",
    "GeneratedCase",
    "GeneratedCases",
    "NonConvergenceError",
    "ParamPairs",
    "PochhammerRatioPrefactor",
    "PowerOfOneMinusX",
    "PreconditionError",
    "RationalPolynomial",
    "SeriesSpec",
    "SweepSummary",
    "ThomaeError",
    "TransformResult",
    "VerificationReport",
    "WeightedSeriesSpec",
    "ZeroSet",
    "as_rational",
    "beta_integral_oracle",
    "build_G",
    "build_Q",
    "build_Qhat",
    "c_coefficients",
    "c_via_terminating_series",
    "contract_pairs",
    "euler1",
    "euler2",
    "eval_numeric",
    "eval_terminating",
    "find_zeros",
    "gamma_ratio",
    "generate_cases",
    "parametric_excess",
    "pochhammer",
    "pochhammer_product",
    "sigma_coefficients",
    "terminating_sweep",
    "thomae",
    "thomae_terminating",
    "verify_transform",
    "__version__",
]
