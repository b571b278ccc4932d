"""Generalized Jacobi theta function and the integral route to U_2n.

Psi_n(q) = sum over all integers k of q^(k^(2n)) for 0 < q < 1; Psi_1 is
the classical theta3.  Writing q = e^(-t), Fubini on the Laplace kernel
gives

    U_2n(z) = integral_0^inf e^(-t z^(2n)) Psi_n(e^(-t)) dt,

valid whenever Re(z^(2n)) > 0 (the convergence condition of the scalar
identity 1/a = integral_0^inf e^(-ta) dt).  The equivalent q-form
integral_0^1 q^(z^(2n)-1) Psi_n(q) dq is never integrated directly: near
q = 1 the theta terms pile up, while in t the integrand decays like
e^(-t Re z^(2n)) and its t -> 0 blowup Psi ~ c t^(-1/(2n)) is algebraic
and removed exactly by the substitution t = u^(2n).

All theta series work happens in t; powers q^(k^(2n)) are evaluated as
e^(-t k^(2n)), which never overflows.  Each quadrature node skips its
own terms past t k^(2n) > 45 (each below 3e-20, under any supported
tolerance), so a node next to t = 0 costs ~(45/t)^(1/(2n)) terms
without making the other nodes of its panel pay the same.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergentError, QuadratureFailureError
from .numerics import EPS
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
                f"psi(n={n}, q={arg.q}): {k} terms exceed max_terms="
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
    at its own t k^(2n) > 45.

    Terms are summed in blocks of k of growing width (8, 16, ... up to
    200,000), each over the nodes whose cut lies beyond the block start,
    so a node costs about its own term count rather than that of the
    smallest t among the nodes.  A node with t > 45 returns exactly 1.
    """
    tmin = float(np.min(ts))
    if tmin < _T_FLOOR:
        raise ValueError(f"theta series requires t >= {_T_FLOOR:.3g}, got {tmin:.3g}")
    two_n = 2 * n
    kcut = (_EXP_CUT / ts) ** (1.0 / two_n)  # node i keeps k <= kcut[i]
    kmax = math.ceil(kcut.max())
    if kmax > 10_000_000:
        raise QuadratureFailureError(
            f"theta series at t={tmin:.3g} needs ~{kmax} terms per node; "
            "the quadrature has subdivided deeper than the series can support"
        )
    acc = np.zeros_like(ts)
    active = np.flatnonzero(kcut >= 1.0)
    start, width = 1, 8
    while active.size:
        ks = np.arange(start, start + width, dtype=np.float64)
        with np.errstate(over="ignore"):
            expo = np.outer(ts[active], ks ** two_n)
        acc[active] += np.exp(-np.minimum(expo, 745.0)).sum(axis=1)
        start += width
        width = min(2 * width, 200_000)
        active = active[kcut[active] >= start]
    return 1.0 + 2.0 * acc


def u_theta(n: int, z: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """Evaluate U_2n(z) through the theta-kernel Laplace integral.

    ``n`` is the theta index: the series order of the result is 2n.
    Requires Re(z^(2n)) > 0, the convergence condition of the Laplace
    identity, with z^(2n) a usable double (:func:`power_in_range`);
    everything else raises DomainError before any quadrature runs.

    The integral is split at t = 1 and t = 60.  On (0, 1] the
    substitution t = u^(2n) gives the bounded integrand
    2n u^(2n-1) Psi_n(e^(-u^(2n))) e^(-u^(2n) z^(2n)); on [1, 60] the
    original integrand is integrated directly.  Above 60 the theta sum
    is 1 to twenty-six digits, so that piece is the exact Laplace
    transform e^(-60 s)/s plus a 2.05 e^(-60) error allowance; a fixed
    upper quadrature endpoint keeps the panel nodes dense where the
    k = 1 theta term still carries mass, which a cut scaled to 1/Re(s)
    would not.  ``work`` counts quadrature nodes.
    """
    require_order(n)
    z = require_finite_scalar(z)
    s = power_in_range(z, 2 * n)
    r = s.real
    if not (r > 0.0):
        raise DomainError(
            f"domain: theta integral for U_{2 * n} needs Re(z^{2 * n}) > 0, "
            f"got Re={r!r} at z={z}"
        )
    abs_target = tol.target(abs(1.0 / s)) / 10.0

    # Closed tail beyond t = 60: Psi_n - 1 <= 2.05 e^(-t) there, so
    # integral_60^inf e^(-t s) Psi_n dt = e^(-60 s)/s up to at most
    # 2.05 e^(-60(r+1))/(r+1) < 1.8e-26 in absolute value.
    upper = cmath.exp(-60.0 * s) / s
    upper_err = 1.8e-26 + 4.0 * EPS * abs(upper)

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
        pref = (2 * n) * us ** (2 * n - 1)
        return pref * psis * decay(tsub)

    def integrand_t(ts: np.ndarray) -> np.ndarray:
        return _psi_t_array(n, ts) * decay(ts)

    def decay(ts: np.ndarray) -> np.ndarray:
        # e^(-t z^2n); where t |z^2n| passes the double range the product
        # overflows to inf and the factor is exp(-inf) = 0, as it should be.
        with np.errstate(over="ignore"):
            return np.exp(-ts * (r if s.imag == 0.0 else s))

    budget = int(tol.max_nodes)
    part1 = integrate_adaptive(
        integrand_u, 0.0, 1.0, abs_tol=abs_target, rel_tol=tol.rel_tol / 4.0,
        max_nodes=budget,
    )
    part2 = integrate_adaptive(
        integrand_t, 1.0, 60.0, abs_tol=abs_target, rel_tol=tol.rel_tol / 4.0,
        max_nodes=budget - part1.nodes,
    )
    value = part1.value + part2.value + upper
    err = (part1.err_estimate + part2.err_estimate + upper_err
           + 4.0 * EPS * abs(value))
    return EvalResult(
        value=complex(value),
        err_estimate=err,
        method=Method.THETA_INTEGRAL,
        work=part1.nodes + part2.nodes,
    )
