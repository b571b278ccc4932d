"""Lattice sums U_n(z) = sum over all integers k of 1/(k^n + z^n).

The package evaluates the family by four independent routes: direct
summation with a proven tail bound (`u_direct`), a finite closed form
built from the odd (2k-1)pi/n unit-circle angles (`u_closed`), a
dyadic recursion that halves the order at each level (`phi`), and a
Laplace-transform route through theta series and adaptive quadrature
(`u_theta`).  On top of the evaluators sit extractors for zeta(2n)
(`zeta_even`, `zeta_limit_diagnostic`), unit-circle decompositions
(`unit_circle_parts`), squared infinite-product ratios
(`product_ratio`), and a cross-method verification and benchmarking
harness (`verify_points`, `bench_points`).

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
from .quadrature import QuadratureResult, gk15_panel, integrate_adaptive
from .theta import ThetaArg, psi, u_theta
from .types import (
    DEFAULT_TOLERANCE,
    DomainStatus,
    EvalResult,
    Method,
    Tolerance,
    validate_domain,
)
from .verify import (
    ALL_METHODS,
    SCHEMA_VERSION,
    GridSpec,
    MethodRun,
    PairCheck,
    VerifyReport,
    VerifySummary,
    applicable_methods,
    bench_points,
    evaluate_method,
    run_bench,
    run_verify,
    verify_points,
)
from .zeta_product import (
    ProductQuery,
    ZetaExtraction,
    compose_ratio,
    product_parts,
    product_ratio,
    zeta_even,
    zeta_limit_diagnostic,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # result and control types
    "Method",
    "DomainStatus",
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
    "ThetaArg",
    "gk15_panel",
    "integrate_adaptive",
    "QuadratureResult",
    # zeta and products
    "zeta_even",
    "zeta_limit_diagnostic",
    "ZetaExtraction",
    "ProductQuery",
    "product_parts",
    "compose_ratio",
    "product_ratio",
    # verification harness
    "ALL_METHODS",
    "SCHEMA_VERSION",
    "GridSpec",
    "MethodRun",
    "PairCheck",
    "VerifySummary",
    "VerifyReport",
    "applicable_methods",
    "evaluate_method",
    "verify_points",
    "bench_points",
    "run_verify",
    "run_bench",
]
