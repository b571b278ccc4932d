"""Generalized Jacobi theta function and the integral route to U_2n.

Psi_n(q) = sum over all integers k of q^(k^(2n)) for 0 < q < 1; Psi_1 is
the classical theta3.  Writing q = e^(-t), Fubini on the Laplace kernel
gives, for s = z^(2n) with Re s > 0 (the condition of 1/a = integral_0^inf
e^(-ta) dt),

    U_2n(z) = integral_0^inf e^(-t s) Psi_n(e^(-t)) dt.

The piece t >= 1 is integrated term by term in closed form.  On (0, 1],
t = u^(2n) removes the algebraic blowup Psi ~ c t^(-1/(2n)) at t -> 0, and
Gauss-Legendre panels take the bounded integrand, each certified by a
Bernstein-ellipse bound (:mod:`~cotlattice.quadrature`).  Per order the panels
and their bounds' s-free constants are kept, and per node set the s-free part
of the integrand; a call adds the s-dependent part of each bound and e^(-t s).
One evaluator sums Psi_n, with a bound per node, at the quadrature's nodes and
at psi's one t = -log q: terms e^(-t k^(2n)) up to t k^(2n) = 45, and next to
t = 0 Jacobi's dual at n = 1, Poisson's lead at n >= 2; so psi's sum does not
depend on the tolerance.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonConvergentError
from .numerics import EPS, powers
from . import quadrature
from .quadrature import Panels, integrate_adaptive
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
#: Ladder panels [a, a (1 + _RATIO/n)] in u.
_RATIO = 0.7


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


def _theta_factor(n: int, us: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """At nodes u: t = u^(2n), u_theta's integrand without its e^(-t s),
    2n u^(2n-1) Psi_n(e^(-t)), and a bound on the relative error of that
    integrand's value there, less the (2 + 3n) eps |s| t that e^(-t s) adds:
    the node bound of :func:`_psi_t_array`; 10 eps for t's rounding (its
    |t dPsi/dt| <= 1.74 Psi), the power, the products and the complex exp; and
    the node's own rounding, 1.5 eps u (:class:`~cotlattice.quadrature.Panels`),
    which moves the integrand by 1.5 eps |d log f / d log u| of itself, where
    d log f / d log u = 2n - 1 + 2n t Psi'/Psi - 2n t s and -(2 + 1.48n) <=
    2n t Psi'/Psi <= 0 (Psi falls in t): under 1.5 eps (2n + 1.5 + 2n |t s|)."""
    ts = us ** (2 * n)
    with np.errstate(over="ignore"):  # n = 1's dual exponent (pi/u)^2 at tiny u: terms 0
        v, k = _psi_t_array(n, ts, us)
        factor = (2 * n) * us ** (2 * n - 1) * v
    rel = (np.minimum(0.5 * k, k / 16 + 5) + 19 + 3 * n + np.log(v)) * EPS
    return ts, factor, rel + 3.0 * math.exp(-_EXP_CUT)


def _ellipse(n: int, u0: float, p: Panels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """s-free constants (A, B, log C) per rho of RHOS and panel of ``p`` with
    |integrand| <= C exp(-(A Re s - B |Im s|)) over the panel's ellipse E_rho,
    for Re s > 0.  Its box [m - alpha, m + alpha] x [-beta, beta] bounds |u|
    by R = m + alpha, and where 2n phi < pi/2, phi = atan(beta/(m - alpha)),
    t = u^(2n) by Re t >= (m - alpha)^(2n) cos(2n phi) = A and |Im t| <= R^(2n)
    sin(2n phi) = B; elsewhere by |t| <= R^(2n).  On (u0, 1] the integrand is
    analytic where Re t > 0, and there |Psi_n(e^(-t))| <= Psi_n(e^(-A)); on
    [0, u0] the evaluator returns the entire lead.  A and B carry 1e-12 and C
    1e-9 of slack for their own rounding."""
    g, rho = 0.5 / n, quadrature.RHOS[:, None]
    alpha, beta = (0.5 * (rho + 1.0 / rho)) * p.h, (0.5 * (rho - 1.0 / rho)) * p.h
    big, small = p.mid + alpha, np.maximum(p.mid - alpha, 0.0)
    ang = (2 * n) * np.arctan2(beta, small)
    sector = ang < 0.5 * math.pi
    with np.errstate(over="ignore"):
        top = np.minimum(big ** (2 * n), 1e300)
    shrink = np.where(sector, np.cos(ang), 0.0)
    a = np.where(sector, small ** (2 * n) * shrink, -top)
    b = np.where(sector, top * np.sin(ang), top)
    log_big = np.log(big)
    lead = p.b <= u0
    if n == 1:
        log_c = np.full(a.shape, math.log(2.0 * math.sqrt(math.pi)))
    else:
        log_c = math.log(4 * n * math.gamma(1.0 + g)) + (2 * n - 2) * log_big
    live, psi_hi = sector & ~lead, np.full(a.shape, np.inf)
    if live.any():  # Psi past a double t < _T_MIN is within 1 of the lead (_psi_t_array)
        v = _psi_t_array(n, a[live], small[live] * shrink[live] ** g)[0]
        psi_hi[live] = v * (1.0 + 1e-12) + (a[live] < _T_MIN)
    log_c = np.where(lead, log_c, math.log(2 * n) + (2 * n - 1) * log_big + np.log(psi_hi))
    return a - 1e-12 * abs(a), b * (1.0 + 1e-12), log_c + 1e-9


class _Order:
    """What u_theta's order alone fixes.  With g = 1/(2n), the panel [0, u0]
    is where the evaluator returns an entire function: Poisson's lead below
    u0 = sin(pi/(6n))/_Y_LEAD, and at n = 1 Jacobi's dual below u0 = pi/sqrt(45),
    where its terms past the 1 are under e^(-45).  Geometric panels
    [a, a (1 + _RATIO/n)] follow up to 1, the same shape in t at every scale.
    Per panel and rho the s-free constants of :func:`_ellipse`; per node set,
    its _theta_factor (:meth:`factor`)."""

    def __init__(self, n: int) -> None:
        g = 0.5 / n
        self.n = n
        u0 = math.pi / math.sqrt(45.0) if n == 1 else math.sin(math.pi / (6 * n)) / _Y_LEAD
        self.u0 = u0
        k = math.ceil(-math.log(u0) / math.log1p(_RATIO / n))
        edges = u0 ** (1.0 - np.arange(k + 1) / k)
        self.panels = Panels(np.append(0.0, edges[:-1]), edges)
        self.ellipse = _ellipse(n, u0, self.panels)
        self.memo: dict[bytes, tuple[np.ndarray, ...]] = {}
        self.gamma_c = math.gamma(1.0 + g) * math.gamma(2.0 - g)
        # On [0, u0] the lead's rest is under e^(-45) of it (2.0001 e^(-45) at n = 1),
        # so its integral under that of the lead's modulus: the lead's integral over
        # [0, u0], or 2 Gamma(1 + g) Gamma(1 - g) (Re s)^(g-1) over (0, inf).
        rest = math.exp(-_EXP_CUT) * (2.0001 if n == 1 else 1.0)
        self.lead = (rest * 2 * math.gamma(1 + g) * u0 ** (2 * n - 1) * 2 * n / (2 * n - 1),
                     rest * 2 * math.pi * g / math.sin(math.pi * g))
        # A node of n >= 54 with t < _T_MIN puts its Psi within 1 (_psi_t_array), so
        # the integrand within 2n u^(2n-1) < 2n _T_MIN/u of its own, u > u0.
        self.deep = 2 * n * _T_MIN / u0 if n > 1 else 0.0

    def log_m(self, p: Panels, re: float, im: float) -> np.ndarray:
        a, b, log_c = self.ellipse if p is self.panels else _ellipse(self.n, self.u0, p)
        with np.errstate(over="ignore"):  # an exponent past the double range: no bound
            return log_c - a * re + b * im

    def factor(self, us: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_theta_factor` at ``us``, read-only, kept per node set (quadrature.kept)."""
        return quadrature.kept(self.memo, us.tobytes(), lambda: _theta_factor(self.n, us))


@lru_cache(maxsize=None)
def _per_order(n: int) -> _Order:
    return _Order(n)


def _lower_scale(n: int, s: complex) -> float:
    """A lower bound on |U_2n(z)|, s = z^(2n), Re s > 0.  Every term 1/(k^(2n) + s)
    has its argument within [-|arg s|, 0] (or its mirror), so |U| is at least
    cos(arg s / 2) sum_k 1/|k^(2n) + s| >= cos(arg s / 2) sum_k 1/(k^(2n) + |s|),
    and that sum is at least 1/|s| + 2/(1 + |s|) and, by the integral test,
    (2 pi g / sin(pi g)) |s|^(g-1) - 1/|s|, g = 1/(2n)."""
    g, a = 0.5 / n, abs(s)
    lead = 2.0 * math.pi * g / math.sin(math.pi * g) * a ** (g - 1.0) - 1.0 / a
    cos_half = 1.0 if isinstance(s, float) else math.cos(0.5 * abs(cmath.phase(s)))
    return (1.0 - 1e-12) * cos_half * max(1.0 / a + 2.0 / (1.0 + a), lead)


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
    integrated on the panels of :class:`_Order` by the certified rule of
    :func:`~cotlattice.quadrature.integrate_adaptive`, to a quarter of
    ``tol.target`` at :func:`_lower_scale`.  The bar adds the rule's bounds
    (of the panels it integrates and of those it skips), the nodes' own
    bounds, the lead's and the deep nodes' charges, the upper piece's bound,
    and the rounding of the sum and of s, bounded by :func:`power_in_range`.
    ``work`` counts the (0, 1] quadrature nodes.
    """
    require_order(n)
    z = require_finite_scalar(z)
    s, rel = laplace_power(n, z)
    r, size = s.real, abs(s)
    target = tol.target(_lower_scale(n, s))
    upper, upper_err = _upper_piece(n, s, target / 8.0)
    order = _per_order(n)
    im = abs(s.imag)

    def integrand_u(us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ts, factor, rel_u = order.factor(us)
        ys = factor * np.exp(ts * -s)  # |e^(-t s)| <= 1: t <= 1 and Re s > 0
        return ys, np.abs(ys) * (rel_u + ((2 + 3 * n) * EPS * size) * ts)

    quad = integrate_adaptive(integrand_u, order.panels, lambda p: order.log_m(p, r, im),
                              target / 4.0, int(tol.max_nodes))
    # power_in_range leaves |ds| <= rel |s|.  Near s, |dU/ds| = |s^-2 +
    # 2 sum_k (k^2n + s)^-2| <= 1.01 |s|^-2 + 2 sum_k (k^2n + rho)^-2, rho = Re s -
    # |ds|: under 4 zeta(4) = 4.33 for rho > -1/2, its integral for rho >= 1.
    rho = r - rel * size
    rest = 4.33 if rho < 1.0 else order.gamma_c * rho ** (0.5 / n - 2.0)
    value = quad.value + upper
    lead = min(order.lead[0], order.lead[1] * r ** (0.5 / n - 1.0))
    err = (quad.err_estimate + upper_err + lead + order.deep + 4.0 * EPS * abs(value)
           + 1.01 * rel / size + 2.0 * rest * (rel * size))
    return EvalResult(value=complex(value), err_estimate=err,
                      method=Method.THETA_INTEGRAL, work=quad.nodes)
