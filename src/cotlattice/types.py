"""Shared value types and the domain gate.

Conventions used throughout the package:

* Scalars are ordinary Python ``complex`` (``float`` inputs are accepted
  everywhere and treated as complex numbers with zero imaginary part).
  Every value returned by a public operation has finite real and
  imaginary parts; anything else raises instead of propagating inf/nan.
* The series order n is a plain ``int`` >= 1, validated at entry.
* U_n(z) is undefined at poles and at z = 0 for even n:
  :func:`validate_domain` raises DomainError there, once per evaluation.
  Each power z^k a route divides by comes from :func:`power_in_range`,
  which raises DomainError where z^k is not a usable double.
* Every evaluator takes a :class:`Tolerance` and returns an
  :class:`EvalResult` whose ``err_estimate`` is a justified bound, never
  a guess.

All types here are immutable and all functions are pure, so everything
is safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError
from .numerics import ipow

__all__ = [
    "Method",
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "EvalResult",
    "validate_domain",
    "power_in_range",
    "require_order",
    "require_finite_scalar",
]

#: Relative proximity at which a lattice denominator k^n + z^n is treated
#: as an exact pole by validate_domain.
POLE_EPS = 1e-12


class Method(enum.Enum):
    """Identifies which evaluation route produced a value."""

    DIRECT_SUM = "direct"
    CLOSED_FORM = "closed"
    DYADIC_RECURSION = "dyadic"
    THETA_INTEGRAL = "theta"


@dataclass(frozen=True)
class Tolerance:
    """Accuracy targets and work budgets shared by all evaluators.

    An evaluator meets tolerance when its error bound is at most
    ``max(abs_tol, rel_tol * |value|)``.  At least one of the two
    targets must be positive.

    Attributes:
        abs_tol: absolute error target.
        rel_tol: relative error target.
        max_terms: cap on series terms a direct summation may consume.
        max_nodes: cap on quadrature nodes an integration may consume.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_terms: int = 10_000_000
    max_nodes: int = 100_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol >= 0.0):
            raise ValueError(f"abs_tol must be finite and >= 0, got {self.abs_tol!r}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0.0):
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol!r}")
        if self.abs_tol + self.rel_tol <= 0.0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")
        if int(self.max_terms) < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms!r}")
        if int(self.max_nodes) < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes!r}")

    def target(self, value_scale: float) -> float:
        """Error bound that counts as meeting tolerance at magnitude
        ``value_scale``."""
        return max(self.abs_tol, self.rel_tol * abs(value_scale))


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class EvalResult:
    """A computed value together with its accountable error bound.

    Attributes:
        value: the computed sum, always stored as ``complex``.
        err_estimate: certified upper-ish bound on ``|value - truth|``;
            combines the analytic truncation bound with a rounding model.
        method: which route produced the value.
        work: series terms summed or quadrature nodes used.
    """

    value: complex
    err_estimate: float
    method: Method
    work: int

    def __post_init__(self) -> None:
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"non-finite value {v!r}")
        if not (math.isfinite(self.err_estimate) and self.err_estimate >= 0.0):
            raise ValueError(f"err_estimate must be finite and >= 0, got {self.err_estimate!r}")


def require_order(n: int) -> int:
    """Validate a series order.  Returns n as a plain int."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"order n must be an int, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    return n


def require_finite_scalar(z: complex) -> complex:
    """Coerce to complex and reject non-finite input."""
    w = complex(z)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"z must be finite, got {w!r}")
    return w


def validate_domain(n: int, z: complex) -> complex:
    """The domain gate of the lattice sum over 1/(k^n + z^n): returns z
    as a complex, or raises DomainError where U_n(z) is undefined.

    Raises for even n at z = 0 (the singular point of the closed forms)
    and at a pole, where k^n + z^n vanishes for some integer k (at z = 0
    with odd n the k = 0 denominator is the witness).  ValueError and
    TypeError flag an invalid n or a non-finite z.

    A pole requires |k| = |z|, so only the integers k != 0 in the band
    |z| - 2 <= |k| <= |z| + 2 are candidates (k > 0 alone for even n,
    where (-k)^n = k^n), and of those only the ones within 1e-10 |z| of
    |z| are tested.  Vanishing is tested relative to the size of the
    candidate addends,

        |k^n + z^n| < POLE_EPS * max(|k|^n, |z|^n),

    which catches the near-cancellations that would destroy accuracy
    while never flagging a small-but-honest denominator (for |z| < 1
    and large n, |z|^n alone is tiny at the harmless k = 0).  For even
    n and real z != 0 every denominator is at least z^n > 0, so there is
    no pole.
    """
    require_order(n)
    z = require_finite_scalar(z)
    if z == 0 and n % 2 == 0:
        raise DomainError("domain: z=0 excluded for even n")
    if _has_pole(n, z):
        raise DomainError(f"domain: U_{n} at z={z}: pole")
    return z


def _has_pole(n: int, z: complex) -> bool:
    if z == 0:
        return True
    if n % 2 == 0 and z.imag == 0.0:
        return False
    az = abs(z)
    # A pole needs |k| = |z|.  An integer k with d = ||z| - k| / |z| > 1e-10
    # has ||k|^n - |z|^n| >= min(1, n d) / 4 of the larger power, far above
    # POLE_EPS plus the rounding of the two powers below.  So only the k
    # within min(2, 1e-10 |z|) of |z| are tested: below |z| = 5e9 at most
    # round(|z|), and never more than the band |z| +- 2.
    reach = min(2.0, 1e-10 * az)
    band = range(max(1, math.ceil(az - reach)), math.floor(az + reach) + 1)
    if not band:
        return False
    # Work with z/s and k/s so no power overflows.
    s = max(1.0, az)
    zsn = ipow(z / s, n)
    azn = abs(zsn)
    signs = (1.0,) if n % 2 == 0 else (1.0, -1.0)
    for k in band:
        for sign in signs:
            ksn = ipow(sign * k / s, n)
            if abs(ksn + zsn) < POLE_EPS * max(abs(ksn), azn):
                return True
    return False


def power_in_range(z: complex, k: int) -> complex:
    """z^k by :func:`~cotlattice.numerics.ipow`, a float when z is a
    float, checked to be usable as a divisor: nonzero, with finite parts
    and a finite reciprocal.  Raises DomainError otherwise."""
    p = ipow(z, k)
    if p == 0 or not (math.isfinite(p.real) and math.isfinite(p.imag)
                      and math.isfinite(1.0 / abs(p))):
        raise DomainError(f"domain: z^{k} leaves double range at z={complex(z)}")
    return p
