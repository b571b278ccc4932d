"""Lattice sums U_n(z) = sum over all integers k of 1/(k^n + z^n).

The package evaluates the family by four independent routes: direct
summation with a proven tail bound (`u_direct`), a finite closed form
built from the odd (2k-1)pi/n unit-circle angles (`u_closed`), a
dyadic route that writes U_(2^m) as one level of order-2 sums at
rotated arguments (`phi`), and a Laplace-transform route through theta
series and certified Gauss-Legendre quadrature (`u_theta`).  On top of the evaluators
sit extractors for zeta(2n) (`zeta_even`, and `zeta_contour` through
the closed form), unit-circle decompositions (`unit_circle_parts`),
squared infinite-product ratios (`product_ratio`), and a cross-method
verification harness (`verify_points`).

Every evaluation returns an `EvalResult` carrying the value, an error
estimate that is a bound, not a guess, the method tag, and a work
counter.  Failure is loud: impossible inputs raise `DomainError`,
unreachable accuracy raises `ToleranceError`.
"""

from .closed import u_closed, unit_circle_parts
from .direct import u_direct
from .dyadic import MAX_LEVEL, phi
from .errors import (
    CotlatticeError,
    DomainError,
    InvalidCutoffError,
    KernelSingularError,
    NonConvergentError,
    QuadratureFailureError,
    RecursionPoleError,
    ToleranceError,
)
from .theta import psi, u_theta
from .types import (
    DEFAULT_TOLERANCE,
    EvalResult,
    Method,
    Tolerance,
    validate_domain,
)
from .verify import (
    ALL_METHODS,
    SCHEMA_VERSION,
    MethodRun,
    VerifyReport,
    VerifySummary,
    applicable_methods,
    verify_points,
)
from .zeta_product import (
    ProductQuery,
    product_ratio,
    zeta_contour,
    zeta_even,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # result and control types
    "Method",
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "EvalResult",
    "validate_domain",
    # errors
    "CotlatticeError",
    "DomainError",
    "KernelSingularError",
    "RecursionPoleError",
    "InvalidCutoffError",
    "ToleranceError",
    "NonConvergentError",
    "QuadratureFailureError",
    # evaluators
    "u_direct",
    "u_closed",
    "unit_circle_parts",
    "phi",
    "MAX_LEVEL",
    "psi",
    "u_theta",
    # zeta and products
    "zeta_even",
    "zeta_contour",
    "ProductQuery",
    "product_ratio",
    # verification harness
    "ALL_METHODS",
    "SCHEMA_VERSION",
    "MethodRun",
    "VerifySummary",
    "VerifyReport",
    "applicable_methods",
    "verify_points",
]
