"""Closed-form evaluation of U_n(z) by a finite trigonometric kernel.

Writing the n-th roots of -z^n as z e^(i theta_k) with
theta_k = (2k - 1) pi / n, partial fractions against the classical
cotangent expansion collapse the lattice sum to n kernel terms:

    U_n(z) = pi / (n z^(n-1)) * sum_{k=1}^{n} f_k,

    f_k = [a_k sin(2 pi z a_k) + b_k sinh(2 pi z b_k)]
          / [cosh(2 pi z b_k) - cos(2 pi z a_k)],

with a_k = cos(theta_k), b_k = sin(theta_k).  The identity holds for
complex z as well.  Since f_k is even in b_k, the conjugate rays theta
and 2 pi - theta give identical terms; since it is even in a_k too, for
even n the rays theta and pi - theta do as well.  So only the ceil(n/2)
rays with theta in (0, pi] are evaluated for odd n, and the (n + 2) // 4
with theta in (0, pi/2] for even n, each weighted by the number of roots
it stands for (:func:`kernel_table`).  For n = 1 and n = 2 the sum is
pi cot(pi z) and (pi / z) coth(pi z).

Two stability measures apply to every kernel term:

* cosh(y) - cos(x) is evaluated as 2 sinh^2(y/2) + 2 sin^2(x/2), which
  is an exact rearrangement and free of the small-argument cancellation
  of the naive difference;
* once the exponential scale max(|Re y|, |Im x|) exceeds 30, numerator
  and denominator are rescaled by e^(-scale) so that cosh/sinh never
  overflow (cosh alone would overflow near argument 710).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from types import ModuleType
from typing import NamedTuple, NoReturn

from .direct import lattice_series
from .errors import DomainError, KernelSingularError
from .numerics import EPS
from .types import (
    DEFAULT_TOLERANCE,
    EvalResult,
    Method,
    Tolerance,
    power_in_range,
    require_order,
    validate_domain,
)

__all__ = [
    "RootRay",
    "kernel_table",
    "u_closed",
    "unit_circle_parts",
]

#: Exponential scale beyond which kernel terms switch to the rescaled form.
_BIG = 30.0
#: Relative threshold at which a kernel denominator counts as singular.
_SING_EPS = 1e-12
#: 2 _SING_EPS with 1e-6 of slack for the rounding of sinh, sin, cosh, cos.
_SING_CAP = 2.0 * _SING_EPS * (1.0 + 1e-6)


class RootRay(NamedTuple):
    """One distinct root ray theta = (2k - 1) pi / n: 0 < theta <= pi for
    odd n, 0 < theta <= pi / 2 for even n."""

    theta: float
    a: float  # cos(theta)
    b: float  # sin(theta), >= 0
    mult: int  # how many of the n roots the ray stands for: 4, 2 or 1


@lru_cache(maxsize=None)
def kernel_table(n: int) -> tuple[RootRay, ...]:
    """The distinct root rays of order n, angle-increasing: ceil(n/2) of
    them for odd n, (n + 2) // 4 for even n.

    The kernel term is even in b and in a.  So a ray stands for its
    conjugate at -theta, and for even n also for its mirror images at
    +-(pi - theta), which are roots too (for odd n they are roots of
    +z^n instead).  Odd n keeps the rays with theta <= pi: multiplicity
    2, except the axis ray theta = pi (1).  Even n keeps those with
    theta <= pi / 2: multiplicity 4, except the ray theta = pi / 2 of
    n = 2 mod 4 (2).  The multiplicities sum to n.  Exact values are
    snapped at the axis rays: (a, b) = (-1, 0) when 2k - 1 = n, (0, 1)
    when (2k - 1)/n = 1/2.
    """
    require_order(n)
    full = 2 if n % 2 else 4
    rays = []
    for num in range(1, (n if n % 2 else n // 2) + 1, 2):
        theta = num * math.pi / n
        if num == n:
            rays.append(RootRay(theta, -1.0, 0.0, 1))
        elif 2 * num == n:
            rays.append(RootRay(theta, 0.0, 1.0, 2))
        else:
            rays.append(RootRay(theta, math.cos(theta), math.sin(theta), full))
    return tuple(rays)


def _kernel(a: float, b: float, w: complex, r: float = 1.0,
            m: ModuleType | None = None) -> complex:
    """[a sin x + b sinh y] / [cosh y - cos x] at x = w a, y = w b.

    ``w`` is 2 pi z, a float for real z or a complex; ``m`` is the module
    that evaluates it, ``math`` for a float and ``cmath`` for a complex
    (taken from the type of ``w`` when not given).  The denominator
    counts as vanished below ``_SING_EPS`` relative to its addends.  Below
    exponential scale 30 the half-angle numerator and denominator are both
    multiplied by r^2, where r is a power of two (exact) that keeps the
    denominator from underflowing near z = 0; see :func:`u_closed`.
    """
    if m is None:
        m = math if isinstance(w, float) else cmath
    x = w * a
    y = w * b
    if abs(y.real) <= _BIG and abs(x.imag) <= _BIG:
        sh = m.sinh(0.5 * y)
        sn = m.sin(0.5 * x)
        # |cosh y| <= 1 + 2 |sinh(y/2)|^2 and |cos x| <= 1 + 2 |sin(x/2)|^2,
        # so a denominator at or above this cap is not singular; only one
        # below it needs the cosh and cos of the exact test.  |v^2| = |v|^2.
        cap = _SING_CAP * (1.5 + abs(sh * sh) + abs(sn * sn))
        num = a * m.sin(x) + b * m.sinh(y)
        if r != 1.0:
            sh, sn, num = sh * r, sn * r, num * r * r
        den = 2.0 * sh * sh + 2.0 * sn * sn
        if abs(den) < cap and (
                abs(den) < _SING_EPS * (1.0 + abs(m.cosh(y)) + abs(m.cos(x)))):
            _singular(x, y)
        return num / den
    scale_exp = max(abs(y.real), abs(x.imag))
    if m is math:
        # Rescale by e^(-|y|): sinh and cosh overflow past ~710 while
        # the ratio itself stays O(1).
        e1 = math.exp(-scale_exp)
        e2 = e1 * e1
        sgn = 1.0 if y > 0 else -1.0
        num = 2.0 * a * math.sin(x) * e1 + b * sgn * (1.0 - e2)
        return num / (1.0 + e2 - 2.0 * math.cos(x) * e1)
    # Express everything through the four exponentials e^(+-y), e^(+-ix)
    # rescaled by e^(-scale_exp); all exponents then have non-positive
    # real part, so nothing overflows and the common factor cancels.
    ep = cmath.exp(y - scale_exp)
    em = cmath.exp(-y - scale_exp)
    fp = cmath.exp(1j * x - scale_exp)
    fm = cmath.exp(-1j * x - scale_exp)
    num = a * (fp - fm) / 2j + b * (ep - em) / 2.0
    den = (ep + em - fp - fm) / 2.0
    scale = (abs(ep) + abs(em) + abs(fp) + abs(fm)) / 2.0 + math.exp(-scale_exp)
    if abs(den) < _SING_EPS * scale:
        _singular(x, y)
    return num / den


def _singular(x: complex, y: complex) -> NoReturn:
    raise KernelSingularError(
        f"kernel denominator cosh - cos vanished (x={x:.6g}, y={y:.6g}); "
        "the evaluation point sits on or near a pole"
    )


def u_closed(n: int, z: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """Evaluate U_n(z) in closed form, for any n >= 1.

    One loop over the distinct rays of :func:`kernel_table` (ceil(n/2)
    for odd n, (n + 2) // 4 for even n), each term weighted by its
    multiplicity.  ``work`` reports n, the number of terms of the closed
    form, regardless of |z|.

    Near z = 0 every kernel denominator shrinks like |2 pi z|^2 / 2 and
    underflows below |z| ~ 1e-155.  The kernel scales numerator and
    denominator by r^2, r the power of two with 1 <= |2 pi z| r < 2 (1
    for |2 pi z| >= 1, capped at 2^1023): exact, and it keeps both O(1),
    so they meet the singularity threshold at that size and U_1(1e-300)
    = 1e300 evaluates.

    Raises DomainError at poles and z = 0 of even n (validate_domain) and
    where z^(n-1) (power_in_range) or |U_n(z)| leaves the double range;
    KernelSingularError where a kernel denominator vanishes.
    """
    z = validate_domain(n, z)
    w = 2.0 * math.pi * (z.real if z.imag == 0.0 else z)
    r = math.ldexp(1.0, min(1023, 1 - math.frexp(min(1.0, abs(w)))[1]))
    m = math if isinstance(w, float) else cmath
    tot = 0.0
    abs_tot = 0.0
    for _, a, b, mult in kernel_table(n):
        f = mult * _kernel(a, b, w, r, m)
        tot += f
        abs_tot += abs(f)
    term_sum = complex(tot)
    zp = power_in_range(z.real if z.imag == 0.0 else z, n - 1)
    pref = math.pi / (n * zp)
    value = complex(pref * term_sum)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(
            f"domain: |U_{n}({z})| exceeds double range"
        )
    # Rounding model: cancellation across kernel terms plus argument
    # scale, all relative to the value.
    cond = abs_tot / abs(term_sum) if term_sum != 0 else 1.0
    arg_scale = 2.0 * math.pi * abs(z)
    err = abs(value) * EPS * (8.0 + 4.0 * cond + arg_scale)
    if value == 0:
        err = abs(pref) * abs_tot * 4.0 * EPS
    return EvalResult(value=value, err_estimate=err, method=Method.CLOSED_FORM, work=n)


# ---------------------------------------------------------------------------
# Unit-circle decomposition: z = e^(i theta)


def unit_circle_parts(
    n: int, theta: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[float, float]:
    """Real and imaginary parts of U_n at z = e^(i theta).

    With D_k = k^(2n) + 2 k^n cos(n theta) + 1 these are the real series

        Re U_n = sum_k (k^n + cos(n theta)) / D_k
        Im U_n = -sin(n theta) * sum_k 1 / D_k

    Both are summed at once as U_n at w = z^n = e^(i n theta), taken from
    cos(n theta) and sin(n theta), by the direct route's series
    (:func:`~cotlattice.direct.lattice_series`): symmetric pair terms to
    a cutoff K >= 16 and the Euler-Maclaurin-corrected tail beyond it,
    which reaches 1e-10 at n = 1 with a few dozen terms.

    Returns the pair (re, im).  Raises NonConvergentError if the tail
    bound cannot meet ``tol.target(max(|re|, |im|))`` within max_terms.
    """
    require_order(n)
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    c = math.cos(n * theta)
    s = math.sin(n * theta)
    for k in (-1, 0, 1):
        kn = float(k**n)
        if kn * kn + 2.0 * kn * c + 1.0 < 1e-24:
            raise DomainError(
                f"domain: unit-circle denominator vanishes at k={k} for "
                f"n={n}, theta={theta!r} (sin(n theta) = 0 with k^n = -cos(n theta))"
            )
    where = f"unit_circle_parts(n={n}, theta={theta})"
    value, _, _ = lattice_series(
        n, complex(c, s), EPS, 16, tol.max_terms,
        lambda v: tol.target(max(abs(v.real), abs(v.imag))), where)
    return value.real, value.imag
