"""Coefficients of the power series x/ln(1+x), three ways, with proofs checked.

The package computes the rational coefficients b_n of

    x / ln(1+x) = sum_{n>=0} b_n x**n
                = 1 + x/2 - x**2/12 + x**3/24 - 19 x**4/720 + ...

by an exact series recurrence, by an exact explicit nested-sum formula,
and by double-exponential quadrature of a ray integral whose weight is
1/((ln(t-1))**2 + pi**2).  On top of the three representations it
machine-checks the structural facts the integral form implies: complete
monotonicity of the signed moments, Hankel determinant nonnegativity,
majorization product inequalities, log-convexity, and Bernstein/degree
screens for x/ln(1+x) and its relatives.
"""

from .exact import (
    GregoryTable,
    TableMethod,
    a_coefficient,
    bernoulli2_explicit,
    bernoulli2_explicit_table,
    bernoulli2_series,
    format_rational,
    nested_sum,
    signed_moment_sequence,
)
from .quadrature import (
    DEFAULT_MAX_LEVELS,
    DEFAULT_TOL,
    QuadratureResult,
    bernoulli2_integral,
    bernoulli2_integrals,
    bernstein_identity,
    genfun_derivative_integral,
    genfun_integral,
    moment_integral,
    shifted_kernel_integral,
    stieltjes_recip_log,
    stieltjes_weight,
    stieltjes_weight_unit,
)
from .properties import (
    CmReport,
    DegreeBracket,
    DeterminantVariant,
    IntegrandEvaluationError,
    bareiss_determinant,
    check_bernstein,
    check_cm_sequence,
    check_log_convexity,
    check_majorization_inequality,
    check_minimality_perturbation,
    check_shifted_kernel_determinants,
    closed_derivative,
    closed_derivative_decimal,
    cm_grid_test,
    estimate_cm_degree,
    hankel_determinant,
    is_majorized,
)

__version__ = "0.1.0"

__all__ = [
    "GregoryTable",
    "TableMethod",
    "a_coefficient",
    "bernoulli2_explicit",
    "bernoulli2_explicit_table",
    "bernoulli2_series",
    "format_rational",
    "nested_sum",
    "signed_moment_sequence",
    "DEFAULT_MAX_LEVELS",
    "DEFAULT_TOL",
    "IntegrandEvaluationError",
    "QuadratureResult",
    "bernoulli2_integral",
    "bernoulli2_integrals",
    "bernstein_identity",
    "genfun_derivative_integral",
    "genfun_integral",
    "moment_integral",
    "shifted_kernel_integral",
    "stieltjes_recip_log",
    "stieltjes_weight",
    "stieltjes_weight_unit",
    "CmReport",
    "DegreeBracket",
    "DeterminantVariant",
    "bareiss_determinant",
    "check_bernstein",
    "check_cm_sequence",
    "check_log_convexity",
    "check_majorization_inequality",
    "check_minimality_perturbation",
    "check_shifted_kernel_determinants",
    "closed_derivative",
    "closed_derivative_decimal",
    "cm_grid_test",
    "estimate_cm_degree",
    "hankel_determinant",
    "is_majorized",
    "__version__",
]
