"""Exception hierarchy for the cotlattice package.

Two broad families matter to callers:

* ``DomainError`` and its subclasses mean the requested point is outside
  the domain of the series (a pole was hit or an excluded point was
  requested): kind "domain".
* ``ToleranceError`` and its subclasses mean the point is fine but the
  requested accuracy could not be certified within the configured work
  budget: kind "tolerance".
"""

from __future__ import annotations


class CotlatticeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CotlatticeError):
    """The evaluation point is a pole or an excluded point of the series."""


class KernelSingularError(DomainError):
    """A closed-form kernel term rho cot(pi z rho) met a vanishing tangent
    product, which signals a pole (or a near-pole too close to resolve)."""


class RecursionPoleError(DomainError):
    """A rotated argument of the dyadic route landed on a pole of U_2, or
    outside its range."""


class InvalidCutoffError(CotlatticeError, ValueError):
    """A truncation cutoff K is too close to the series' radius: the tail
    expansion's geometric majorant needs (radius / K)^p <= 1/2."""


class ToleranceError(CotlatticeError):
    """Requested tolerance could not be certified within the work budget."""


class NonConvergentError(ToleranceError):
    """Direct summation hit max_terms before the tail bound met tolerance."""


class QuadratureFailureError(ToleranceError):
    """The certified quadrature cannot size its panels within max_nodes, or meets a
    value or bound that is not finite."""


#: The CLI's exit code for each kind of :func:`error_kind`.
EXIT_CODES = {"domain": 2, "usage": 2, "tolerance": 1}


def error_kind(exc: Exception) -> str:
    """The kind of an error: "domain", "tolerance" (the families above) or "usage"."""
    if isinstance(exc, DomainError):
        return "domain"
    if isinstance(exc, ToleranceError):
        return "tolerance"
    return "usage"
