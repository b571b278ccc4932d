"""Generalized Jacobi theta function and the integral route to U_2n.

Psi_n(q) = sum over all integers k of q^(k^(2n)) for 0 < q < 1; Psi_1 is
the classical theta3.  Writing q = e^(-t), Fubini on the Laplace kernel
gives, for s = z^(2n) with Re s > 0 (the condition of 1/a = integral_0^inf
e^(-ta) dt),

    U_2n(z) = integral_0^inf e^(-t s) Psi_n(e^(-t)) dt.

On t >= 1 the theta series converges super-exponentially, so that piece
is integrated term by term in closed form.  On (0, 1] the blowup Psi ~
c t^(-1/(2n)) at t -> 0 is algebraic and removed exactly by t = u^(2n);
the bounded integrand goes to adaptive Gauss-Kronrod quadrature.  Theta
powers q^(k^(2n)) are evaluated as e^(-t k^(2n)), which never overflows,
and each node skips its own terms past t k^(2n) > 45 (each below 3e-20),
so a node next to t = 0 costs ~(45/t)^(1/(2n)) terms without making the
other nodes of its panel pay the same.  At n = 1 Jacobi's exact transform
Psi_1(e^(-t)) = sqrt(pi/t) Psi_1(e^(-pi^2/t)) caps that at 3 terms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergentError, QuadratureFailureError
from .numerics import EPS, powers
from .quadrature import integrate_adaptive
from .types import (
    DEFAULT_TOLERANCE,
    EvalResult,
    Method,
    Tolerance,
    power_in_range,
    require_finite_scalar,
    require_order,
)

__all__ = ["ThetaArg", "psi", "u_theta"]

#: e^(-45) ~ 2.9e-20: theta terms beyond this exponent cannot move any
#: double-precision target supported here.
_EXP_CUT = 45.0
#: Below this t, 45/t and the k^(2n) <= 45/t the series needs overflow.
_T_FLOOR = 2.0 ** -1017
#: k per table and (node, k) pairs per pass of _psi_t_array: memory bounded at any kmax.
_CHUNK = 1 << 14
_IOTA = np.arange(_CHUNK)


@dataclass(frozen=True)
class ThetaArg:
    """Nome q in (0, 1) stored together with its exponential view t.

    :meth:`from_q` sets t = -log q, so q * e^t = 1 within a few ulps.
    """

    q: float
    t: float

    @classmethod
    def from_q(cls, q: float) -> "ThetaArg":
        q = float(q)
        if not (math.isfinite(q) and 0.0 < q < 1.0):
            raise DomainError(f"domain: theta nome q must lie in (0, 1), got {q!r}")
        return cls(q=q, t=-math.log(q))


def _kpow(k: int, two_n: int) -> float:
    """k^(2n), or +inf past the double range, where e^(-t k^(2n)) = 0."""
    try:
        return float(k) ** two_n
    except OverflowError:
        return math.inf


def psi(n: int, arg: ThetaArg, tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """Evaluate Psi_n(q) = 1 + 2 sum_{k>=1} q^(k^(2n)).

    Terms are positive and decreasing; summation stops once the next
    term drops below a quarter of the tolerance target.  The attached
    error bound dominates the discarded tail by the geometric series
    with ratio e^(-t ((K+2)^(2n) - (K+1)^(2n))), which the increasing
    exponent gaps make valid.  At small t there are ~t^(-1/(2n)) terms,
    and the running sum can lose up to that many ulps; its rounding is
    tracked exactly (Knuth's TwoSum) and charged to the bound.
    """
    require_order(n)
    if not isinstance(arg, ThetaArg):
        arg = ThetaArg.from_q(arg)
    t = arg.t
    two_n = 2 * n
    total = 1.0
    lost = 0.0  # what the additions to total have rounded away
    k = 0
    while True:
        head = _kpow(k + 1, two_n)
        nxt = 2.0 * math.exp(-t * head)
        if nxt < 0.25 * tol.target(total):
            break
        k += 1
        s = total + nxt
        kept = s - total
        lost += (total - (s - kept)) + (nxt - kept)
        total = s
        if 2 * k + 1 > tol.max_terms:
            raise NonConvergentError(
                f"psi(n={n}, q={arg.q}): {2 * k + 1} terms exceed max_terms="
                f"{tol.max_terms} before meeting tolerance"
            )
    ratio = math.exp(-t * (_kpow(k + 2, two_n) - head)) if nxt > 0.0 else 0.0
    tail = nxt / (1.0 - ratio) if ratio < 1.0 else nxt
    err = tail + abs(lost) + 4.0 * EPS * total * (1.0 + t)
    return EvalResult(
        value=complex(total), err_estimate=err, method=Method.DIRECT_SUM, work=2 * k + 1
    )


def _psi_t_array(n: int, ts: np.ndarray) -> np.ndarray:
    """Psi_n(e^(-t)) for an array of t >= _T_FLOOR, each node truncated
    at its own t k^(2n) > 45; a node with t > 45 returns exactly 1.

    At n = 1, nodes with t < pi sum Jacobi's dual series (<= 3 terms).  k runs
    in windows of _CHUNK, one k^(2n) table each; a window's (node, k) pairs lie
    flat, node after node, summed _CHUNK at a time per node by np.add.reduceat.
    """
    tmin = float(ts.min())
    if tmin < _T_FLOOR:
        raise ValueError(f"theta series requires t >= {_T_FLOOR:.3g}, got {tmin:.3g}")
    if n == 1:  # Jacobi's dual where t < pi, i.e. q > 1; q = 1 keeps the rest
        q = math.pi / np.where(ts < math.pi, ts, math.pi)
        ts = np.where(q > 1.0, math.pi * q, ts)
    kcut = (_EXP_CUT / ts) ** (0.5 / n)
    kmax = int(kcut.max())
    if kmax > 10_000_000:
        raise QuadratureFailureError(
            f"theta series at t={tmin:.3g} needs ~{kmax} terms per node; "
            "the quadrature has subdivided deeper than the series can support"
        )
    counts, minus_t = kcut.astype(np.int64), -ts  # node i keeps k <= kcut_i
    acc = np.zeros(ts.shape)
    for k0 in range(0, kmax, _CHUNK):
        top = min(kmax, k0 + _CHUNK)  # up to 1024, a power of two: a few cached tables serve
        table = powers(2 * n, k0 + 1, max(top, min(1 << (top - 1).bit_length(), 1024)))
        span = np.minimum(np.maximum(counts - k0, 0), _CHUNK)  # each node's k in the window
        ends = span.cumsum()
        heads = ends - span
        for p0 in range(0, int(ends[-1]), _CHUNK):
            lo, hi = np.maximum(heads, p0), np.minimum(ends, p0 + _CHUNK)
            live = (hi > lo).nonzero()[0]
            width = (hi - lo)[live]
            off = (heads[live] - p0).repeat(width)  # pair j is term k0 + j - off + 1
            terms = table.take(np.subtract(_IOTA[:off.size], off, out=off))
            terms *= minus_t[live].repeat(width)
            acc[live] += np.add.reduceat(np.exp(terms, out=terms), lo[live] - p0)
    return (1.0 + 2.0 * acc) * (np.sqrt(q) if n == 1 else 1.0)


def _upper_piece(n: int, s: complex, target: float) -> tuple[complex, float]:
    """integral_1^inf e^(-t s) Psi_n(e^(-t)) dt term by term, as (value, bound):
    e^(-s)/s + 2 sum_{k>=1} e^(-s) e^(-k^(2n)) / (s + k^(2n)), stopped once
    the next term, k = K, is at most ``target``/4.  The bound is the
    geometric majorant of the terms k >= K (ratio e^(K^(2n) - (K+1)^(2n)),
    as the exponent gaps grow), the rounding of each term's ~8 operations
    and of the sum on the sum of |terms|, and a subnormal spacing per operation.
    """
    r = s.real
    es = math.exp(-r) if isinstance(s, float) else cmath.exp(-s)
    total = es / s
    mag = abs(total)
    k = 1
    while True:
        kp = _kpow(k, 2 * n)
        nxt = 2.0 * es * math.exp(-kp) / (s + kp)
        if abs(nxt) <= 0.25 * target:
            break
        total += nxt
        mag += abs(nxt)
        k += 1
    lead = 2.0 * math.exp(-r - kp) / (r + kp)
    tail = lead / (1.0 - math.exp(kp - _kpow(k + 1, 2 * n))) if lead > 0.0 else 0.0
    return total, tail + (16 + 2 * k) * EPS * mag + 4 * k * math.ulp(0.0)


def u_theta(n: int, z: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """Evaluate U_2n(z) through the theta-kernel Laplace integral.

    ``n`` is the theta index: the series order of the result is 2n.
    Requires Re(z^(2n)) > 0, the convergence condition of the Laplace
    identity, with z^(2n) a usable double (:func:`power_in_range`);
    everything else raises DomainError before any quadrature runs.

    With s = z^(2n), t >= 1 is the closed sum of :func:`_upper_piece`.
    On (0, 1], t = u^(2n) gives 2n u^(2n-1) Psi_n(e^(-u^(2n))) e^(-u^(2n) s),
    integrated with the peak of its modulus, u* = ((2n-1)/(2n Re s))^(1/(2n)),
    and the end of that peak's tail as first panel edges where they lie
    below 1.  The bar also charges the rounding of s, bounded by
    :func:`power_in_range`.  ``work`` counts the (0, 1] quadrature nodes.
    """
    require_order(n)
    z = require_finite_scalar(z)
    s, rel = power_in_range(z.real if z.imag == 0.0 else z, 2 * n)  # a float for real z
    r = s.real
    if not (r > 0.0):
        raise DomainError(
            f"domain: theta integral for U_{2 * n} needs Re(z^{2 * n}) > 0, "
            f"got Re={r!r} at z={z}"
        )
    abs_target = tol.target(abs(1.0 / s)) / 10.0
    upper, upper_err = _upper_piece(n, s, abs_target)

    def integrand_u(us: np.ndarray) -> np.ndarray:
        tsub = us ** (2 * n)
        try:
            psis = _psi_t_array(n, tsub)
        except ValueError:
            # Some t = u^(2n) < _T_FLOOR: there Psi_n(e^(-t)) <= 1 + 2 Gamma(1
            # + 1/(2n)) t^(-1/(2n)), so the integrand is at most 6n t^((n-1)/n):
            # 0 unless that can move the target (n = 1 reaches no such node).
            if 6.0 * n * _T_FLOOR ** ((n - 1) / n) > EPS * abs_target:
                raise QuadratureFailureError(
                    f"theta integrand for U_{2 * n} at z={z} needs nodes u^{2 * n} "
                    f"< {_T_FLOOR:.3g}, where its series leaves double range")
            live = tsub >= _T_FLOOR
            return np.where(live, integrand_u(np.where(live, us, 1.0)), 0.0)
        # e^(-t z^2n); where t |z^2n| passes the double range the product
        # overflows to inf and the factor is exp(-inf) = 0, as it should be.
        with np.errstate(over="ignore"):
            return (2 * n) * us ** (2 * n - 1) * psis * np.exp(-tsub * s)

    # |integrand| peaks at u* = ((1 - g)/Re s)^g; past (36/Re s)^g the e^(-36)
    # factor leaves < 3e-16 of its integral (Psi falls in t).  As first panel
    # edges they let the first panels see the peak and its tail, however narrow.
    g = 1.0 / (2 * n)
    quad = integrate_adaptive(
        integrand_u, 0.0, 1.0, abs_tol=abs_target, rel_tol=tol.rel_tol / 4.0,
        max_nodes=int(tol.max_nodes),
        breaks=tuple(b for b in ((1.0 - g) ** g / r ** g, 36.0 ** g / r ** g) if b < 1.0),
    )
    # power_in_range leaves |ds| <= rel |s|.  Near s, |dU/ds| = |s^-2 +
    # 2 sum_k (k^2n + s)^-2| <= 1.01 |s|^-2 + 2 sum_k (k^2n + rho)^-2, rho = Re s -
    # |ds|: under 4 zeta(4) = 4.33 for rho > -1/2, its integral for rho >= 1.
    rho = r - rel * abs(s)
    rest = 4.33 if rho < 1.0 else math.gamma(1.0 + g) * math.gamma(2.0 - g) * rho ** (g - 2.0)
    value = quad.value + upper
    err = (quad.err_estimate + upper_err + 4.0 * EPS * abs(value)
           + 1.01 * rel / abs(s) + 2.0 * rest * (rel * abs(s)))
    return EvalResult(value=complex(value), err_estimate=err,
                      method=Method.THETA_INTEGRAL, work=quad.nodes)
