"""Derived quantities: even zeta values and lattice product ratios.

Two families of consequences of the closed forms live here.

* ``zeta_even(n)`` returns zeta(2n).  The limit
  (1/2) lim_{z->0} (U_2n(z) - z^(-2n)) equals the k != 0 half of the
  lattice sum evaluated at z = 0, i.e. sum_{k>=1} 1/k^(2n), so we sum
  that series directly with an Euler-Maclaurin tail instead of
  subtracting two nearly equal numbers.  ``zeta_contour(n)`` is the
  second route, through the closed form: the trapezoidal mean of
  U_2n(z) - z^(-2n) over a circle in w = z^(2n), where by Cauchy's
  formula the mean is the limit itself.

* ``product_ratio(query)`` evaluates

      prod_{k in Z} ((y^n + k^n) / (x^n + k^n))^2

  two ways: a symmetric partial product accumulated in log space, its
  tail summed as zeta tails (the cross-check), and the closed form

      prod_{k=1}^n (cosh(2 pi y b_k) - cos(2 pi y a_k))
                 / (cosh(2 pi x b_k) - cos(2 pi x a_k))

  over the unit-circle kernel table (the reported value).  Each factor
  uses the cancellation-free half-angle form
  cosh(2w) - cos(2v) = 2 sinh(w)^2 + 2 sin(v)^2; with x, y in (0, 1)
  and |a|, |b| <= 1 the arguments stay below 2 pi, so no scaling is
  needed.  The reported err_estimate is |LHS - RHS| plus both routes'
  bounds, so disagreement between the two routes is never hidden.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .closed import kernel_rows, u_closed
from .errors import DomainError, NonConvergentError
from .numerics import EPS, powers, series_tail
from .types import (
    DEFAULT_TOLERANCE,
    EvalResult,
    Method,
    Tolerance,
    power_in_range,
    require_order,
)

__all__ = [
    "ProductQuery",
    "zeta_even",
    "zeta_contour",
    "product_parts",
    "compose_ratio",
    "product_ratio",
]


@lru_cache(maxsize=1024)
def _zeta_block(n: int, lo: int, cutoff: int) -> float:
    """sum_{k=cutoff..lo+1} k^(-2n), summed from the top: a block of
    :func:`zeta_even`, kept, since it depends on n and the block alone."""
    return float(np.add.reduce(np.arange(cutoff, lo, -1, dtype=np.float64) ** float(-2 * n)))


def zeta_even(n: int, tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """zeta(2n) as half the z -> 0 limit of U_2n(z) - z^(-2n).

    The limit quantity is exactly 2 sum_{k>=1} k^(-2n), so the series
    is summed to a cutoff K and the rest is the one-coefficient
    (c_1 = 1, p = 2n) case of :func:`series_tail`; no cancellation
    occurs.  ``work`` is K.

    Raises NonConvergentError if the tail bound cannot meet a quarter of
    the tolerance target within ``tol.max_terms`` terms, the first block
    of 16 included.
    """
    require_order(n)
    partial, lo, cutoff = 0.0, 0, 16
    if cutoff > tol.max_terms:
        raise NonConvergentError(f"zeta_even(n={n}): starting cutoff {cutoff} already "
                                 f"exceeds max_terms={tol.max_terms}")
    while True:
        partial += _zeta_block(n, lo, cutoff)
        est, rem = series_tail((1.0,), 2 * n, cutoff, 0.0, 0.0)
        value = partial + est.real
        target = 0.25 * tol.target(value)
        if rem <= target:
            break
        if 2 * cutoff > tol.max_terms:
            raise NonConvergentError(
                f"zeta tail bound {rem:.3g} above target/4 = {target:.3g} "
                f"at cutoff {cutoff} with max_terms={tol.max_terms}"
            )
        lo, cutoff = cutoff, 2 * cutoff
    err = rem + EPS * value * (4.0 + math.log2(cutoff))
    return EvalResult(complex(value), err, Method.DIRECT_SUM, cutoff)


def zeta_contour(n: int, tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """zeta(2n) as a trapezoidal mean of U_2n(z) - z^(-2n) over a circle.

    g(w) = U_2n(z) - 1/w = 2 sum_{k>=1} 1/(k^(2n) + w), w = z^(2n), is
    analytic for |w| < 1 with Taylor coefficients 2 (-1)^j zeta(2n (j+1)),
    all at most pi^2/3.  Its mean over w_k = e^(2 pi i (k + 1/2) / 64) / 2
    is 2 zeta(2n) up to aliasing below (pi^2/3) 2^-64 / (1 - 2^-64)
    (Trefethen and Weideman, SIAM Review 56, 2014); as g(conj w) =
    conj g(w), it is the mean of Re g over the 32 upper-half nodes, each
    one ``u_closed(2n, w_k^(1/2n))`` (``work`` 32 * 2n).  The bar is half
    the largest node bar plus the aliasing, plus the final rounding; a
    node's bar adds the rounding of 1/z^(2n): that of z^(2n) as
    :func:`power_in_range` bounds it, and 4 eps for the reciprocal.
    """
    require_order(n)
    s = 2 * n
    parts = []
    node_err = 0.0
    for k in range(32):
        z = cmath.rect(0.5 ** (1.0 / s), math.pi * (k + 0.5) / (32 * s))
        res = u_closed(s, z, tol)
        zs, rel = power_in_range(z, s)
        inv = 1.0 / zs
        parts.append((res.value - inv).real)
        node_err = max(node_err, res.err_estimate + (rel + 4.0 * EPS) * abs(inv))
    value = math.fsum(parts) / 64.0
    aliasing = math.pi**2 / 3.0 * 2.0**-64 / (1.0 - 2.0**-64)
    err = 0.5 * (node_err + aliasing) + 4.0 * EPS * abs(value)
    return EvalResult(value=complex(value), err_estimate=err,
                      method=Method.CLOSED_FORM, work=32 * s)


@dataclass(frozen=True)
class ProductQuery:
    """Endpoints for the squared lattice product ratio.

    Invariant 0 < x <= y < 1.  The open unit interval keeps every
    factor positive for both parities of n: for even n the denominators
    y^n + k^n are positive outright, and for odd n the only candidate
    zero k = -x (or -y) would need an integer in (0, 1).
    """

    n: int
    x: float
    y: float

    def __post_init__(self) -> None:
        require_order(self.n)
        x = float(self.x)
        y = float(self.y)
        if not (math.isfinite(x) and math.isfinite(y) and 0.0 < x <= y < 1.0):
            raise DomainError(
                f"domain: product endpoints need 0 < x <= y < 1, "
                f"got x={self.x!r}, y={self.y!r}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _rhs_closed(n: int, x: float, y: float) -> EvalResult:
    # Factor k of the closed form, in the half-angle form that never
    # cancels: cosh(2 pi t b) - cos(2 pi t a) = 2 sinh(pi t b)^2
    # + 2 sin(pi t a)^2.  The common factors of 2 cancel in the ratio,
    # and a ray contributes its factor to the power of its multiplicity
    # (the factor is even in a and in b).
    #
    # Rounding, in eps relative to each half-angle sum: sin and sinh add
    # an ulp each and pass their argument errors (ka, kb of kernel_table)
    # on with derivatives |cos| <= 1 and cosh <= 1 + |sinh|, weighted by
    # each part's share of the sum (the squares and the sum add 1.5).
    # Near a zero of sin(pi y a) (y -> 1 on the axis ray) this charges
    # the condition |pi y a / sin(pi y a)| in full.
    total = 1.0
    rel = 0.0
    wy = math.pi * y
    wx = math.pi * x
    for a, b, mult, ka, kb in kernel_rows(n):
        sn_y = math.sin(wy * a)
        sh_y = math.sinh(wy * b)
        sn_x = math.sin(wx * a)
        sh_x = math.sinh(wx * b)
        num = sh_y * sh_y + sn_y * sn_y
        den = sh_x * sh_x + sn_x * sn_x
        try:
            total *= (num / den) ** mult
        except (ZeroDivisionError, OverflowError):  # a factor leaves double range
            total = math.inf
            break
        rel_y = 2.0 * wy * (abs(sn_y) * ka + abs(sh_y) * (1.0 + abs(sh_y)) * kb) / num
        rel_x = 2.0 * wx * (abs(sn_x) * ka + abs(sh_x) * (1.0 + abs(sh_x)) * kb) / den
        # each sum's own 3.5 and the quotient's rounding, then the
        # power's and the product's
        rel += mult * (rel_y + rel_x + 8.0) + 2.0
    if not (math.isfinite(total) and total > 0.0):
        raise DomainError(
            f"domain: closed product for n={n} on ({x}, {y}) left double range"
        )
    return EvalResult(complex(total), total * EPS * rel, Method.CLOSED_FORM, n)


def _log_coeffs(f: float, a: float, b: float) -> Iterator[float]:
    """c_m = f (-1)^(m+1) (b^m - a^m) / m for m >= 1, the power series
    of f (log(1 + b t) - log(1 + a t)) in t."""
    pa, pb, m = a, b, 1
    while True:
        yield f * (pb - pa) / m
        pa, pb, m = pa * -a, pb * -b, m + 1


def _lhs_series(n: int, x: float, y: float, tol: Tolerance,
                scale: float) -> EvalResult:
    """Symmetric partial product plus corrected tail, as 2 sum of log ratios.

    The k = 0 factor contributes n log(y/x) analytically.  Pairs
    (k, -k) combine to an absolutely convergent term for both parities:

        even n:  2 log1p((y^n - x^n) / (x^n + k^n))
                   = sum_m 2 (-1)^(m+1) (y^(nm) - x^(nm)) / m * k^(-nm)
        odd n:   log1p((x^(2n) - y^(2n)) / (k^(2n) - x^(2n)))
                   = -sum_m (y^(2nm) - x^(2nm)) / m * k^(-2nm)

    so the terms beyond the cutoff K are a combination of zeta tails,
    summed by :func:`series_tail` with |c_m| <= |c_1| y^(p (m-1)).  K
    starts at 16 and doubles until the tail bound meets
    0.25 * tol.target(scale) or a doubling's 2(2K) + 1 terms would exceed
    the budget; a budget stop is not an error, it just leaves a larger
    (honest) err_estimate on the cross-check.  The first block of 16
    pairs always runs, so ``work`` is at least 33 whatever the budget.
    """
    xn, yn = x ** n, y ** n
    # the pair term is f log1p((b - a) / (k^p + a))
    #               = f (log(1 + b k^-p) - log(1 + a k^-p))
    f, a, b, p = (2.0, xn, yn, n) if n % 2 == 0 else (1.0, -xn * xn, -yn * yn, 2 * n)
    target = 0.25 * tol.target(scale) / max(scale, 1e-300)
    pair_sum, cond, lo, cutoff = 0.0, 0.0, 1, 16
    while True:
        den = powers(p, lo, cutoff) + a
        u = (b - a) / den
        # rows log1p(u) and its condition (6 |b| / den + 5 |u|) / (1 + u):
        # log1p magnifies the error of its argument (a few ulps of |b| / den
        # and of u) by 1 / (1 + u), large as y -> 1 at odd n; 5 |u| = +-5 u,
        # as den > 0 gives u the sign of b - a
        block = np.empty((2, len(u)))
        np.log1p(u, out=block[0])
        kappa = np.multiply(u, 5.0 if b >= a else -5.0, out=block[1])
        kappa += np.divide(6.0 * abs(b), den, out=den)
        u += 1.0
        kappa /= u
        logs, conds = np.add.reduce(block, axis=1).tolist()
        pair_sum += f * logs
        cond += f * conds
        tail, bound = series_tail(_log_coeffs(f, a, b), p, cutoff, f * abs(b - a), y)
        if bound <= target or 2 * (2 * cutoff) + 1 > int(tol.max_terms):
            break
        lo, cutoff = cutoff + 1, 2 * cutoff
    log_lhs = 2.0 * (n * (math.log(y) - math.log(x)) + pair_sum + tail.real)
    value = math.exp(log_lhs)
    # log x and log y are good to half an ulp each and are multiplied by
    # 2n; the rest is the pair terms' arguments and the rounding of the
    # sums and of exp.
    rounding = EPS * (n * (abs(math.log(x)) + abs(math.log(y))) + abs(log_lhs) + cond
                      + 2.0 * math.log2(cutoff + 2.0) + 8.0)
    err = value * (math.expm1(2.0 * bound) + rounding)
    return EvalResult(complex(value), err, Method.DIRECT_SUM, 2 * cutoff + 1)


def product_parts(query: ProductQuery,
                  tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[EvalResult, EvalResult]:
    """Both routes to the product ratio: (series LHS, closed-form RHS).

    Exposed so callers can report the cross-check alongside the value.
    At x == y both sides are the empty product, returned exactly.
    """
    if query.x == query.y:
        one = EvalResult(value=complex(1.0), err_estimate=0.0,
                         method=Method.DIRECT_SUM, work=0)
        return one, EvalResult(value=complex(1.0), err_estimate=0.0,
                               method=Method.CLOSED_FORM, work=0)
    rhs = _rhs_closed(query.n, query.x, query.y)
    lhs = _lhs_series(query.n, query.x, query.y, tol, abs(rhs.value))
    return lhs, rhs


def compose_ratio(lhs: EvalResult, rhs: EvalResult) -> EvalResult:
    """Fold the two product routes into the reported result.

    Value comes from the closed form; the error estimate charges the
    full disagreement against the truncated route plus both routes' own
    bounds, so it certifies the identity as well as the value.
    """
    err = abs(lhs.value.real - rhs.value.real) + lhs.err_estimate + rhs.err_estimate
    return EvalResult(rhs.value, err, Method.CLOSED_FORM, lhs.work + rhs.work)


def product_ratio(query: ProductQuery,
                  tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """prod_{k in Z} ((y^n + k^n)/(x^n + k^n))^2, a real number >= 0.

    See :func:`compose_ratio` for how the two routes combine.
    ``product_ratio`` at x == y returns exactly 1.0 with zero error and
    zero work (the empty ratio).
    """
    lhs, rhs = product_parts(query, tol)
    return compose_ratio(lhs, rhs)
