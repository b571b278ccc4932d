"""Dyadic route for U_(2^m)(z): one level of order-2 base calls.

With n = 2^m = 2c, partial fractions of 1/(x^c + Z^c) in x = k^2, Z = z^2,
give the whole order in one step:

    phi_m(z) = U_n(z) = -1 / (c z^(n-2)) * sum_{j<c} omega_j U_2(z rho_j),

omega_j = exp(i pi (2j + 1) / c) the roots of omega^c = -1 and rho_j =
exp(i pi ((2j + 1) / (2c) - 1/2)), so that rho_j^2 = -omega_j.  Each leaf
U_2(w) = pi coth(pi w) / w is one call of the closed form at order 2 (work
2).  Leaf c-1-j is the conjugate of leaf j, so at real z the sum is twice
the real part of its first c/2 terms: c/2 base calls, an exactly real value.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .closed import u_closed
from .errors import DomainError, RecursionPoleError
from .numerics import EPS
from .types import (DEFAULT_TOLERANCE, EvalResult, Method, Tolerance, power_in_range,
                    require_order, validate_domain)

__all__ = ["MAX_LEVEL", "phi"]

#: Deepest supported level; the series exponent 2^m reaches 1024 here and
#: z^(2^(m-1)) would under/overflow doubles soon after.
MAX_LEVEL = 10

#: |computed w_j - z rho_j| <= _ARG |w_j|: rho_j's angle, below pi/2, within 0.93
#: eps, its cos and sin within eps, the product sqrt(5) u.  That moves U_2(w) =
#: pi coth(pi w) / w by _ARG |w U_2'| = _ARG |U_2 + (w U_2)^2 - pi^2| to first order.
_ARG = 3.1 * EPS
#: The sum's rounding per unit of sum |U_2|: omega_j within 1.93 eps as rho_j, the
#: product omega_j U_2 (sqrt(5) u) and fsum's rounding (sqrt(2) u).  At c = 2,
#: omega = +-i and its products are exact, which leaves fsum's: EPS.
_SUM = 4.0 * EPS
_PI2 = math.pi**2


@lru_cache(maxsize=None)
def _leaves(m: int) -> tuple[tuple[complex, complex], ...]:
    """(omega_j, rho_j) for j < c = 2^(m-1), m >= 2: the first c/2 from angles
    below pi/2 in modulus, then their conjugates in reverse order."""
    c = 2 ** (m - 1)
    half = []
    for j in range(c // 2):
        t = math.pi * (4 * j + 2 - c) / (2 * c)  # arg omega_j - pi/2
        s = math.pi * (2 * j + 1 - c) / (2 * c)  # arg rho_j
        half.append((1j * complex(math.cos(t), math.sin(t)), complex(math.cos(s), math.sin(s))))
    return (*half, *((w.conjugate(), r.conjugate()) for w, r in reversed(half)))


def phi(m: int, z: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """Evaluate phi_m(z) = U_(2^m)(z) by one level of U_2 base calls.

    m is the level, 1 <= m <= 10 (the order is n = 2^m), and tol goes to
    the base calls.  phi_1 is u_closed(2, z), bar and work included.  Above
    it the leaves are summed by fsum and divided twice by z^(c-1), so that
    neither z^(n-2) nor c z^(n-2) must be a double; work is 2 per base
    call.  The bar adds the leaf bars, the sum's rounding (_SUM), each
    rotated argument's (_ARG), and twice z^(c-1)'s rel plus the divisions'
    rounding of |value|.

    Raises DomainError at z = 0 and at poles (:func:`validate_domain`), where
    z^c = z^(n/2) is no usable double (:func:`power_in_range`), and where
    |U_n(z)| plus its bar is no double; RecursionPoleError where a rotated
    argument z rho_j hits a pole of U_2 or leaves its range; ValueError for
    m outside 1..10 (u_closed, whose cost is linear in the order, has no
    such limit).
    """
    require_order(m)
    if m > MAX_LEVEL:
        raise ValueError(f"recursion level m={m} exceeds {MAX_LEVEL} (exponent 2^{m}); "
                         "z^(2^(m-1)) under/overflows doubles there -- use u_closed, "
                         "whose cost is linear in the order")
    n, c = 2**m, 2 ** (m - 1)
    z = validate_domain(n, z)
    if m == 1:
        res = u_closed(2, z, tol)
        return EvalResult(res.value, res.err_estimate, Method.DYADIC_RECURSION, res.work)
    real = z.imag == 0.0
    zr = z.real if real else z  # a float for real z
    power_in_range(zr, c)  # the route's range: z^(n/2) a usable double
    p, rel = power_in_range(zr, c - 1)
    leaves = _leaves(m)[: c // 2] if real else _leaves(m)
    terms, abs_sum, leaf_err = [], 0.0, 0.0
    try:
        for omega, rho in leaves:
            w = zr * rho
            res = u_closed(2, w, tol)
            v = res.value
            terms.append(omega * v)
            abs_sum += abs(v)
            wv = w * v
            leaf_err += res.err_estimate + _ARG * abs(v + wv * wv - _PI2)
        if real:  # twice the real part of the first c/2 terms, which stand for all c
            total = 2.0 * math.fsum([t.real for t in terms])
            abs_sum, leaf_err = 2.0 * abs_sum, 2.0 * leaf_err
        else:
            total = complex(math.fsum([t.real for t in terms]), math.fsum([t.imag for t in terms]))
    except DomainError as exc:
        raise RecursionPoleError("recursion: rotated argument at level m=1 hits a pole "
                                 f"of U_2 ({exc})") from exc
    except OverflowError:  # |dU_2/dw| or the sum is no double, nor then U_n's bar
        total = leaf_err = math.inf
    ap = abs(p)
    value = complex(-(total / c) / p / p)
    size = math.hypot(value.real, value.imag)
    # The two divisions round correctly for real z, within 2 eps each for complex z.
    err = ((leaf_err + (EPS if c == 2 else _SUM) * abs_sum) / c / ap / ap
           + (2.0 * rel + (EPS if real else 4.0 * EPS)) * size)
    if size < 2.0**-1022:  # the last division rounds to an ulp(0) grid
        err += 2.0 * math.ulp(0.0)
    if not math.isfinite(size + err):  # the value or its bar is no double
        raise DomainError(f"domain: |U_{n}({z})| exceeds double range at recursion level m={m}")
    return EvalResult(value, err, Method.DYADIC_RECURSION, 2 * len(leaves))
