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
it stands for (:func:`kernel_table`, a table of numpy columns, and
:func:`kernel_rows`, its rows as Python numbers).  For n = 1
and n = 2 the sum is pi cot(pi z) and (pi / z) coth(pi z).

Below ``_CROSSOVER`` rays the terms are summed by a scalar loop, from
there up in one numpy pass over the table; both pick the same form for
each ray and sum the terms in angle order.

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
from functools import lru_cache, partial
from types import ModuleType
from typing import NoReturn

import numpy as np

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
    "kernel_rows",
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
#: Ray count from which u_closed evaluates the kernel in one numpy pass:
#: below it numpy's fixed cost per call outweighs the scalar loop.
_CROSSOVER = 28


@lru_cache(maxsize=None)
def kernel_table(n: int) -> tuple[np.ndarray, ...]:
    """The distinct root rays theta = (2k - 1) pi / n of order n,
    angle-increasing, as read-only columns (a, b, mult, ka, kb): a = cos
    theta, b = sin theta >= 0, mult, how many of the n roots the ray
    stands for, and the argument-error constants ka, kb.  ceil(n/2) rays
    for odd n, (n + 2) // 4 for even n.

    The kernel term is even in b and in a.  So a ray stands for its
    conjugate at -theta, and for even n also for its mirror images at
    +-(pi - theta), which are roots too (for odd n they are roots of
    +z^n instead).  Odd n keeps the rays with theta <= pi: multiplicity
    2, except the axis ray theta = pi (1).  Even n keeps those with
    theta <= pi / 2: multiplicity 4, except the ray theta = pi / 2 of
    n = 2 mod 4 (2).  The multiplicities sum to n.  Exact values are
    snapped at the axis rays: (a, b) = (-1, 0) when 2k - 1 = n, (0, 1)
    when (2k - 1)/n = 1/2.

    For a double w = pi t, ka |w| eps and kb |w| eps bound the errors of
    the computed arguments w a and w b, as the closed product's bar
    charges them: 1.25 eps relative from pi and the two products, and
    off the snapped rays an ulp of a and of b plus their shift by the
    1.5 eps rounding of theta.
    """
    require_order(n)
    full = 2 if n % 2 else 4
    rays = []
    for num in range(1, (n if n % 2 else n // 2) + 1, 2):
        theta = num * math.pi / n
        if num == n:
            rays.append((-1.0, 0.0, 1, 1.25, 0.0))
        elif 2 * num == n:
            rays.append((0.0, 1.0, 2, 0.0, 1.25))
        else:
            a, b = math.cos(theta), math.sin(theta)
            ka = 1.25 * abs(a) + (abs(a) + 1.5 * theta * b)
            kb = 1.25 * b + (b + 1.5 * theta * abs(a))
            rays.append((a, b, full, ka, kb))
    columns = tuple(np.array(col) for col in zip(*rays))
    for col in columns:
        col.flags.writeable = False
    return columns


@lru_cache(maxsize=None)
def kernel_rows(n: int) -> tuple[tuple[float, float, int, float, float], ...]:
    """The (a, b, mult, ka, kb) rows of :func:`kernel_table` as Python
    numbers, for the scalar loops of u_closed and the closed product,
    which numpy scalars would slow."""
    return tuple(zip(*(col.tolist() for col in kernel_table(n))))


def _half_angle(a, b, x, y, r, m):
    """(num, den, cap) by ``m``: a sin x + b sinh y and
    2 sinh^2(y/2) + 2 sin^2(x/2) = cosh y - cos x, both times r^2, and
    the cap below which den needs the exact test of :func:`_vanished`."""
    sh = m.sinh(0.5 * y)
    sn = m.sin(0.5 * x)
    # |cosh y| <= 1 + 2 |sinh(y/2)|^2 and |cos x| <= 1 + 2 |sin(x/2)|^2,
    # so a denominator at or above this cap is not singular; only one
    # below it needs the cosh and cos of the exact test.  |v^2| = |v|^2.
    cap = _SING_CAP * (1.5 + abs(sh * sh) + abs(sn * sn))
    num = a * m.sin(x) + b * m.sinh(y)
    if r != 1.0:
        sh, sn, num = sh * r, sn * r, num * r * r
    return num, 2.0 * sh * sh + 2.0 * sn * sn, cap


def _vanished(den, x, y, m):
    """The exact singularity test |den| < 1e-12 (1 + |cosh y| + |cos x|)."""
    return abs(den) < _SING_EPS * (1.0 + abs(m.cosh(y)) + abs(m.cos(x)))


def _rescaled_real(a, b, x, y, m):
    """(num, den) for real x, y, both rescaled by e^(-|y|): sinh and cosh
    overflow past ~710 while the ratio itself stays O(1)."""
    e1 = m.exp(-abs(y))
    e2 = e1 * e1
    num = 2.0 * a * m.sin(x) * e1 + b * m.copysign(1.0, y) * (1.0 - e2)
    return num, 1.0 + e2 - 2.0 * m.cos(x) * e1


def _rescaled_complex(a, b, x, y, s, m):
    """(num, den, limit) through e^(+-y), e^(+-ix) rescaled by e^(-s),
    s = max(|Re y|, |Im x|): all exponents then have non-positive real
    part, so nothing overflows.  den counts as vanished below ``limit``."""
    ep = m.exp(y - s)
    em = m.exp(-y - s)
    fp = m.exp(1j * x - s)
    fm = m.exp(-1j * x - s)
    num = a * (fp - fm) / 2j + b * (ep - em) / 2.0
    den = (ep + em - fp - fm) / 2.0
    scale = (abs(ep) + abs(em) + abs(fp) + abs(fm)) / 2.0 + abs(m.exp(-s))
    return num, den, _SING_EPS * scale


def _kernel(a: float, b: float, w: complex, r: float, m: ModuleType) -> complex:
    """[a sin x + b sinh y] / [cosh y - cos x] at x = w a, y = w b.

    ``w`` is 2 pi z, a float for real z or a complex, evaluated by ``m``:
    ``math`` for a float, ``cmath`` for a complex.  Each regime is a helper
    shared with :func:`_kernel_terms`: :func:`_half_angle` below exponential
    scale 30, its terms times r^2, r a power of two (exact) that keeps the
    denominator from underflowing near z = 0 (see :func:`u_closed`), and
    :func:`_rescaled_real` or :func:`_rescaled_complex` above.  The
    denominator counts as vanished below ``_SING_EPS`` of its addends.
    """
    x = w * a
    y = w * b
    if abs(y.real) <= _BIG and abs(x.imag) <= _BIG:
        num, den, cap = _half_angle(a, b, x, y, r, m)
        if abs(den) < cap and _vanished(den, x, y, m):
            _singular(x, y)
        return num / den
    if m is math:
        num, den = _rescaled_real(a, b, x, y, m)
        return num / den
    num, den, limit = _rescaled_complex(a, b, x, y, max(abs(y.real), abs(x.imag)), m)
    if abs(den) < limit:
        _singular(x, y)
    return num / den


def _kernel_terms(a: np.ndarray, b: np.ndarray, w: complex, r: float) -> np.ndarray:
    """The :func:`_kernel` terms of columns a, b in one numpy pass.

    Each ray takes the regime that :func:`_kernel` picks for it, by mask;
    |Re w|, |Im w| <= 30 put every ray in the half-angle form.  Raises
    KernelSingularError at the first singular ray in angle order.
    """
    x = w * a
    y = w * b
    if abs(w.real) <= _BIG and abs(w.imag) <= _BIG:
        num, den, cap = _half_angle(a, b, x, y, r, np)
        sing = abs(den) < cap
        if np.count_nonzero(sing):
            sing[sing] = _vanished(den[sing], x[sing], y[sing], np)
    else:
        scale_exp = np.maximum(np.abs(y.real), np.abs(x.imag))
        half = scale_exp <= _BIG
        far = ~half
        num, den = np.empty_like(x), np.empty_like(x)
        sing = np.zeros(len(a), dtype=bool)
        num[half], den[half], cap = _half_angle(a[half], b[half], x[half], y[half], r, np)
        near = np.flatnonzero(half)[np.abs(den[half]) < cap]
        sing[near] = _vanished(den[near], x[near], y[near], np)
        if isinstance(w, float):
            num[far], den[far] = _rescaled_real(a[far], b[far], x[far], y[far], np)
        else:
            num[far], den[far], limit = _rescaled_complex(
                a[far], b[far], x[far], y[far], scale_exp[far], np)
            sing[far] = np.abs(den[far]) < limit
    if np.count_nonzero(sing):
        k = int(np.argmax(sing))
        _singular(x[k], y[k])
    return num / den


def _singular(x: complex, y: complex) -> NoReturn:
    raise KernelSingularError(
        f"kernel denominator cosh - cos vanished (x={x:.6g}, y={y:.6g}); "
        "the evaluation point sits on or near a pole"
    )


def u_closed(n: int, z: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """Evaluate U_n(z) in closed form, for any n >= 1.

    One sum over the distinct rays of :func:`kernel_table` ((n + 2) // 4
    for even n, ceil(n/2) for odd n), each term weighted by its
    multiplicity: a scalar loop below ``_CROSSOVER`` rays, one numpy pass
    from there up.  ``work`` reports n, the number of terms of the closed
    form, regardless of |z|.

    Near z = 0 every kernel denominator shrinks like |2 pi z|^2 / 2 and
    underflows below |z| ~ 1e-155.  The kernel scales numerator and
    denominator by r^2, r the power of two with 1 <= |2 pi z| r < 2 (1
    for |2 pi z| >= 1): exact, and it keeps both O(1), so they meet the
    singularity threshold at that size and U_1(1e-300) = 1e300 evaluates.

    Raises DomainError at poles and z = 0 of even n (validate_domain) and
    where z^(n-1) (power_in_range) or |U_n(z)| plus its bar leaves the
    double range; KernelSingularError where a kernel denominator vanishes.
    Both range checks on the input come before the kernel: z^(n-1), and
    |2 pi z| >= 2^-1022, below which only n = 1 is left and |U_1| ~ 1/|z| is
    no double.  So a value past the double range near z = 0 is never taken
    for a pole, and r <= 2^1022.
    """
    z = validate_domain(n, z)
    zr = z.real if z.imag == 0.0 else z  # a float for real z
    zp, rel = power_in_range(zr, n - 1)
    w = 2.0 * math.pi * zr
    aw = abs(w)
    if aw < 2.0 ** -1022:  # n = 1 alone (z^0 = 1): |U_1| ~ 1/|z| > 2.8e308
        raise DomainError(f"domain: |U_{n}({z})| exceeds double range")
    r = 1.0 if aw >= 1.0 else math.ldexp(1.0, 1 - math.frexp(aw)[1])
    a, b, mult, _, _ = kernel_table(n)
    if len(a) >= _CROSSOVER:
        f = mult * _kernel_terms(a, b, w, r)
        tot = sum(f.tolist())
        abs_tot = sum(np.abs(f).tolist())
    else:
        m = math if isinstance(w, float) else cmath
        tot = abs_tot = 0.0
        try:
            for a_k, b_k, mult_k, _, _ in kernel_rows(n):
                f = mult_k * _kernel(a_k, b_k, w, r, m)
                tot += f
                abs_tot += abs(f)
        except OverflowError:  # a term's modulus is no double, nor is U_n's
            tot = abs_tot = math.inf
    term_sum = complex(tot)
    nzp = n * zp  # pi/n first where this overflows; pref is then subnormal
    pref = math.pi / nzp if cmath.isfinite(nzp) else (math.pi / n) / zp
    value = complex(pref * term_sum)
    try:
        size = abs(value)
    except OverflowError:  # finite parts whose modulus is no double
        size = math.inf
    # Rounding model: cancellation across kernel terms, argument scale and
    # the rounding of z^(n-1), all relative to the value.
    cond = abs_tot / abs(term_sum) if term_sum != 0 else 1.0
    err = size * EPS * (8.0 + 4.0 * cond + 2.0 * math.pi * abs(z)) + rel * size
    if value == 0:
        err = abs(pref) * abs_tot * 4.0 * EPS
    if abs(pref) < 2.0 ** -1022:  # pref and value lose digits to underflow
        err += (abs_tot + 2.0) * math.ulp(0.0)
    if not math.isfinite(size + err):  # the value or its bar is no double
        raise DomainError(
            f"domain: |U_{n}({z})| exceeds double range"
        )
    return EvalResult(value, err, Method.CLOSED_FORM, n)


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
    bound cannot meet ``tol.target(max(|re|, |im|))`` within max_terms,
    also where max_terms is below the first block's 33 terms.
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
    value, _, _ = lattice_series(
        n, complex(c, s), EPS, 16, tol.max_terms,
        lambda v: tol.target(max(abs(v.real), abs(v.imag))),
        partial("unit_circle_parts(n={}, theta={})".format, n, theta))
    return value.real, value.imag
