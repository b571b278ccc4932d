"""Generalized Jacobi theta function and the integral route to U_2n.

Psi_n(q) = sum over all integers k of q^(k^(2n)) for 0 < q < 1; Psi_1 is
the classical theta3.  Writing q = e^(-t), Fubini on the Laplace kernel
gives, for s = z^(2n) with Re s > 0 (the condition of 1/a = integral_0^inf
e^(-ta) dt),

    U_2n(z) = integral_0^inf e^(-t s) Psi_n(e^(-t)) dt.

The piece t >= 1 is integrated term by term in closed form.  On (0, 1],
t = u^(2n) removes the algebraic blowup Psi ~ c t^(-1/(2n)) at t -> 0, and
adaptive Gauss-Kronrod quadrature takes the bounded integrand.  One evaluator
sums Psi_n, with a bound per node, at the quadrature's nodes and at psi's one
t = -log q: terms e^(-t k^(2n)) up to t k^(2n) = 45, and next to t = 0
Jacobi's dual at n = 1, Poisson's lead at n >= 2; so psi's sum does not
depend on the tolerance.  Where no s-dependent edge lies below 1, the first
round's nodes and the s-free part of the integrand are built once per order.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonConvergentError
from .numerics import EPS, powers
from .quadrature import integrate_adaptive, kronrod_nodes
from .types import (
    DEFAULT_TOLERANCE,
    EvalResult,
    Method,
    Tolerance,
    power_in_range,
    require_finite_scalar,
    require_order,
)

__all__ = ["laplace_power", "psi", "u_theta"]

#: e^(-45) ~ 2.9e-20: theta terms beyond this exponent cannot move any
#: double-precision target supported here.
_EXP_CUT = 45.0
#: Poisson's lead is Psi_n(e^(-t)) once y = sin(pi/(6n)) t^(-g) >= _Y_LEAD, g = 1/(2n):
#: on Im x = -y, Re x^(2n) >= |Re x|^(2n)/2 past |Re x| = y cot(pi/(6n)), so its other
#: terms sum to < 4 (e + 2^g Gamma(1 + g)) t^(-g) e^(-2 pi y)/(1 - e^(-2 pi y)) < e^(-45) of it.
_Y_LEAD = 47.2 / (2.0 * math.pi)
#: Below this t the k^(2n) <= 45/t of the series leave the double range.
_T_MIN = _EXP_CUT / sys.float_info.max
#: (node, k) pairs per pass of _psi_t_array: memory bounded at any node count.
_CHUNK = 1 << 14
_IOTA = np.arange(_CHUNK)


def psi(n: int, q: float, tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """Evaluate Psi_n(q) = 1 + 2 sum_{k>=1} q^(k^(2n)) for a nome 0 < q < 1.

    psi checks q itself: any other q, nan included, raises DomainError before a term is
    summed.  It is the node t = -log q >= 1.1e-16 of :func:`_psi_t_array` (never the lead
    below _T_MIN), its bar that node's plus eps |t dPsi/dt| <= eps ((Psi + 1)/(2n) + 2/e)
    for t's rounding.  ``work`` counts the 2K + 1 terms, 1 at the lead: tol only caps them.
    """
    require_order(n)
    q = float(q)
    if not (math.isfinite(q) and 0.0 < q < 1.0):
        raise DomainError(f"domain: theta nome q must lie in (0, 1), got {q!r}")
    v, k = (a.item() for a in _psi_t_array(n, np.array([-math.log(q)])))
    if 2 * k + 1 > tol.max_terms:
        raise NonConvergentError(f"psi(n={n}, q={q}): {2 * k + 1} terms exceed max_terms="
                                 f"{tol.max_terms} before meeting tolerance")
    err = ((min(k / 2, k / 16 + 5) + 6 + math.log(v)) * EPS + 3.0 * math.exp(-_EXP_CUT)) * v
    err += EPS * (0.5 / n * (v + 1.0) + 0.74)
    return EvalResult(value=complex(v), err_estimate=err, method=Method.DIRECT_SUM, work=2 * k + 1)


def _psi_t_array(n: int, ts: np.ndarray, us: np.ndarray | None = None) -> tuple[
        np.ndarray, np.ndarray]:
    """(Psi_n(e^(-t)), K) for an array of t > 0: a node sums its K terms k >= 1 with
    t k^(2n) <= 45 (a node with t > 45 returns exactly 1).  t^(-g), g = 1/(2n), is 1/u
    from ``us`` = t^g where given, right where t = u^(2n) underflows.  At n = 1, nodes
    with t < pi sum Jacobi's dual series (K <= 3).  At n >= 2, nodes past _Y_LEAD take
    Poisson's lead 2 Gamma(1 + g) t^(-g) (K = 0), as do those of n >= 54 with t < _T_MIN,
    for which it is within 1 of Psi (the integral test).  The rest have K <= 40n, never
    over 800; their (node, k) pairs lie flat, summed _CHUNK at a time by np.add.reduceat.

    At its double t >= _T_MIN a node's value v is within ((S + 6 + log v) eps +
    3 e^(-45)) v of Psi.  Past t k^(2n) > 45 the terms fall faster than a geometric
    series of ratio e^(-2.19) (the exponent gaps grow, and 90n/(K + 1) > 2.19): under
    2.3 e^(-45); the lead's remainder is under e^(-45) of it.  A summed term's exponent
    x carries 1.5 eps x, and |t dPsi/dt| = 2 sum x e^(-x) <= g (Psi + 1) + 2/e (the
    integral test); with exp's ulp, v carries 4.1 eps v.  A term meets K - 1 roundings
    in a sum of any order, at most (K - 1)/8 + 10 in np.add.reduceat's over one or two
    passes (a node's first term plus numpy's pairwise sum of the rest, 8 strided
    accumulators per block of <= 128, as the tests pin): S = min(K/2, K/16 + 5).  The
    dual's pi^2/t carries 4 eps, its terms and scale 5 eps v.  The lead carries 5.1 eps
    (Gamma's 2.7), and g's rounding g |log t| eps/2 <= log(v) eps.
    """
    g = 0.5 / n
    inv = 1.0 / (ts ** g if us is None else us)  # t^(-g)
    if n == 1:  # Jacobi's dual where t < pi: its nome is e^(-pi^2/t)
        dual = ts < math.pi
        ts = np.where(dual, (math.pi * inv) ** 2, ts)
        kcut = (_EXP_CUT / ts) ** 0.5
    else:
        lead = (inv * math.sin(math.pi / (6 * n)) >= _Y_LEAD) | (ts < _T_MIN)
        kcut = np.where(lead, 0.0, _EXP_CUT ** g * inv)
    counts, minus_t = kcut.astype(np.int64), -ts  # node i keeps k <= kcut_i
    kmax = int(counts.max())
    table = powers(2 * n, 1, 1 << kmax.bit_length())  # a power of two: a few cached tables serve
    ends = counts.cumsum()
    heads = ends - counts
    acc = np.zeros(ts.shape)
    for p0 in range(0, int(ends[-1]), _CHUNK):
        lo, hi = np.maximum(heads, p0), np.minimum(ends, p0 + _CHUNK)
        live = (hi > lo).nonzero()[0]
        width = (hi - lo)[live]
        off = (heads[live] - p0).repeat(width)  # pair j is term j - off + 1
        terms = table.take(np.subtract(_IOTA[:off.size], off, out=off))
        terms *= minus_t[live].repeat(width)
        acc[live] += np.add.reduceat(np.exp(terms, out=terms), lo[live] - p0)
    if n == 1:
        return (1.0 + 2.0 * acc) * np.where(dual, math.sqrt(math.pi) * inv, 1.0), counts
    return np.where(lead, 2.0 * math.gamma(1.0 + g) * inv, 1.0 + 2.0 * acc), counts


def _theta_factor(n: int, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t = u^(2n) at nodes u, and u_theta's integrand without its e^(-t s):
    2n u^(2n-1) Psi_n(e^(-t))."""
    ts = us ** (2 * n)
    with np.errstate(over="ignore"):  # n = 1's dual exponent (pi/u)^2 at tiny u: terms 0
        return ts, (2 * n) * us ** (2 * n - 1) * _psi_t_array(n, ts, us)[0]


@lru_cache(maxsize=None)
def _per_order(n: int) -> tuple[float, float, bytes, np.ndarray, np.ndarray]:
    """What u_theta's order alone fixes: Gamma(1 + g) Gamma(2 - g), deep, and the
    first round where no edge depends on s, (0, 1) cut in 4: its nodes' bytes
    and :func:`_theta_factor` there, read-only."""
    g, us = 1.0 / (2 * n), kronrod_nodes((0.0, 0.25, 0.5, 0.75), (0.25, 0.5, 0.75, 1.0))[1]
    ts, factor = _theta_factor(n, us)
    ts.flags.writeable = factor.flags.writeable = False
    # A node of n >= 54 with t < _T_MIN puts its Psi within 1 (_psi_t_array), so
    # the integrand within 2n u^(2n-1) < 2n _T_MIN/u of its own, u > sin(pi/(6n))/_Y_LEAD.
    deep = 2 * n * _Y_LEAD / math.sin(math.pi / (6 * n)) * _T_MIN if n > 1 else 0.0
    return math.gamma(1.0 + g) * math.gamma(2.0 - g), deep, us.tobytes(), ts, factor


def _upper_piece(n: int, s: complex, target: float) -> tuple[complex, float]:
    """integral_1^inf e^(-t s) Psi_n(e^(-t)) dt term by term, as (value, bound):
    e^(-s)/s + 2 sum_{k>=1} e^(-s) e^(-k^(2n)) / (s + k^(2n)), stopped once
    the bound on the terms k >= K, which the value does not sum, is at most
    ``target``/4.  That bound is the geometric majorant of |term K| <= lead =
    2 e^(-Re s - K^(2n)) / (Re s + K^(2n)) with ratio e^(K^(2n) - (K+1)^(2n))
    (the exponent gaps grow); the value's bound adds the rounding of each
    term's ~8 operations and of the sum on the sum of |terms|, and a subnormal
    spacing per operation.  Needs Re s > 0 (:func:`laplace_power`).
    """
    r = s.real
    es = math.exp(-r) if isinstance(s, float) else cmath.exp(-s)
    total = es / s
    mag = abs(total)
    # k^(2n), inf past the range: e^(-k^(2n)) is 0, and ends the loop, by k = 28.
    kpow = powers(2 * n, 1, 32).tolist()
    k = 1
    while True:
        kp = kpow[k - 1]
        lead = 2.0 * math.exp(-r - kp) / (r + kp)
        ratio = math.exp(kp - kpow[k]) if lead > 0.0 else 0.0
        if lead <= 0.25 * target * (1.0 - ratio):
            break
        nxt = 2.0 * es * math.exp(-kp) / (s + kp)
        total += nxt
        mag += abs(nxt)
        k += 1
    return total, lead / (1.0 - ratio) + (16 + 2 * k) * EPS * mag + 4 * k * math.ulp(0.0)


@lru_cache(maxsize=1)
def laplace_power(n: int, z: complex) -> tuple[complex, float]:
    """(s, rel) for s = z^(2n), as :func:`power_in_range` gives them (a float
    for real z), where the Laplace identity of :func:`u_theta` holds: Re s > 0.
    Raises DomainError where it does not, or where s is no usable double.
    The last result is kept, for verify's test of z and the u_theta run after it.
    """
    s, rel = power_in_range(z.real if z.imag == 0.0 else z, 2 * n)
    if not (s.real > 0.0):
        raise DomainError(
            f"domain: theta integral for U_{2 * n} needs Re(z^{2 * n}) > 0, "
            f"got Re={s.real!r} at z={z}"
        )
    return s, rel


def u_theta(n: int, z: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """Evaluate U_2n(z) through the theta-kernel Laplace integral.

    ``n`` is the theta index: the series order of the result is 2n.
    Requires Re(z^(2n)) > 0, the convergence condition of the Laplace
    identity, with z^(2n) a usable double (:func:`laplace_power`);
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
    s, rel = laplace_power(n, z)
    r = s.real
    abs_target = tol.target(abs(1.0 / s)) / 10.0
    upper, upper_err = _upper_piece(n, s, abs_target)

    # |integrand| peaks at u* = ((1 - g)/Re s)^g; past (36/Re s)^g the e^(-36)
    # factor leaves < 3e-16 of its integral (Psi falls in t).  As first panel
    # edges they let the first panels see the peak and its tail, however narrow;
    # cutting each in 4 (a constant) costs fewer nodes than the rounds it saves.
    g = 1.0 / (2 * n)
    edges = (0.0, *(b for b in ((1.0 - g) ** g / r ** g, 36.0 ** g / r ** g) if b < 1.0), 1.0)
    gamma_c, deep, first_key, *first_factor = _per_order(n)

    def integrand_u(us: np.ndarray) -> np.ndarray:
        ts, factor = first_factor if us.tobytes() == first_key else _theta_factor(n, us)
        return factor * np.exp(-ts * s)  # |e^(-t s)| <= 1: t <= 1 and Re s > 0

    quad = integrate_adaptive(
        integrand_u, 0.0, 1.0, abs_tol=abs_target, rel_tol=tol.rel_tol / 4.0,
        max_nodes=int(tol.max_nodes),
        breaks=tuple(a + (b - a) * j / 4 for a, b in zip(edges, edges[1:]) for j in range(4))[1:],
    )
    # power_in_range leaves |ds| <= rel |s|.  Near s, |dU/ds| = |s^-2 +
    # 2 sum_k (k^2n + s)^-2| <= 1.01 |s|^-2 + 2 sum_k (k^2n + rho)^-2, rho = Re s -
    # |ds|: under 4 zeta(4) = 4.33 for rho > -1/2, its integral for rho >= 1.
    rho = r - rel * abs(s)
    rest = 4.33 if rho < 1.0 else gamma_c * rho ** (g - 2.0)
    value = quad.value + upper
    err = (quad.err_estimate + upper_err + deep + 4.0 * EPS * abs(value)
           + 1.01 * rel / abs(s) + 2.0 * rest * (rel * abs(s)))
    return EvalResult(value=complex(value), err_estimate=err,
                      method=Method.THETA_INTEGRAL, work=quad.nodes)
