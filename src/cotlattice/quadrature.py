"""Gauss-Legendre panels with a certified Bernstein-ellipse error bound.

Where f is analytic in the open Bernstein ellipse E_rho of a panel of half
width h, with |f| <= M there, the N-point Gauss-Legendre rule (N >= 2) errs
by at most (64/15) h M rho^(2-2N) / (rho^2 - 1): f's Chebyshev coefficients
a_k are at most 2M rho^(-k), odd k cost the symmetric rule nothing, and an
even k >= 2N costs it at most 2 + 2/15 (Trefethen, *Approximation Theory
and Approximation Practice*, Thm 19.3, whose n counts n + 1 points).

The caller bounds |f| per panel and rho of RHOS, RHOS[0] = 1 being the
panel itself.  A panel whose own bound 2h M_1 fits its share of the target
takes no node; any other the least order of ORDERS whose bound fits at some
rho, or it is bisected.  So all chosen nodes go to the integrand in one call,
after the budget check, and the bar is a sum of bounds.  Integrands return
one value per node, or (values, a bound on each value's error)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .errors import QuadratureFailureError
from .numerics import EPS

__all__ = ["integrate_adaptive", "gauss_legendre", "Panels", "QuadratureResult", "ORDERS", "RHOS"]

#: The orders a panel may take, and the ellipses a caller bounds |f| on.
ORDERS, RHOS = (4, 6, 8, 12, 16, 24, 32, 48, 64), np.array([1.0, 1.6, 2.8, 4.0, 10.0])
#: Nodes per level of a panel: 0 takes none (its bound 2h M_1), 1.. the orders,
#: the last bisects it.  _LOG_RULE: each level's log bound per unit of h M over
#: E_rho, _BIG where it does not apply.
_COUNT, _BISECT, _BIG = np.array((0, *ORDERS, 0)), len(ORDERS) + 1, 1e300
_LOG_RULE = np.full((len(RHOS), _BISECT + 1, 1), _BIG)
_LOG_RULE[0, 0], _LOG_RULE[0, _BISECT] = math.log(2.0), -_BIG
_LOG_RULE[1:, 1:_BISECT, 0] = np.log((64.0 / 15.0) * RHOS[1:, None] ** (2.0 - 2.0 * np.array(
    ORDERS)) / (RHOS[1:, None] ** 2 - 1.0))
#: Entries a memo of :func:`kept` holds: 20,000 theta calls chose 11-186 levels vectors an order.
MEMO = 256


def kept(memo: dict, key: bytes, make):
    """memo[key], else the arrays make() returns, made read-only and kept while
    memo holds fewer than MEMO entries."""
    hit = memo.get(key)
    if hit is None:
        hit = make()
        for a in hit:
            a.flags.writeable = False
        if len(memo) < MEMO:
            memo[key] = hit
    return hit


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """1 + x for the nodes x of the even ``order``-point rule on [-1, 1],
    ascending, and their weights, read-only: the doubles next to 34-digit Newton
    iterates from Tricomi's cos(pi (4k - 1)/(4N + 2)).  Weights from double
    nodes err by 2x/(1 - x^2) times the nodes' error, 1600 ulps at 64 points."""

    def newton(x, one):  # a Newton step on P_N from x, and P_N'(x)
        p0, p1 = one, x
        for k in range(2, order + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = order * (p0 - x * p1) / (1 - x * x)
        return x - p1 / dp, dp

    x = np.cos(math.pi * (4 * np.arange(1, order // 2 + 1) - 1) / (4 * order + 2))
    for _ in range(6):
        x = newton(x, 1.0)[0]
    rows = []
    with localcontext() as ctx:
        ctx.prec = 34
        for xd in map(Decimal, x.tolist()):  # the positive nodes, descending
            xd, dp = newton(newton(xd, Decimal(1))[0], Decimal(1))
            rows.append((float(1 - xd), float(1 + xd), float(2 / ((1 - xd * xd) * dp * dp))))
    down, up, w = np.array(rows).T
    shifted, weights = np.concatenate((down, up[::-1])), np.concatenate((w, w[::-1]))
    shifted.flags.writeable = weights.flags.writeable = False
    return shifted, weights


class Panels:
    """Panels [a[i], b[i]] and log_rule[r, l, i], the log of level l's bound on
    panel i per unit of M over E_rho, rho = RHOS[r].  A node a + h (1 + x) is
    within 1.5 eps (|a| + h (1 + x)) of the exact one where b - a is exact (a = 0
    or b <= 2a): an integrand's bounds cover what that moves its values."""

    def __init__(self, a, b) -> None:
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        if not (a.ndim == 1 and a.shape == b.shape and a.size
                and np.isfinite(a).all() and np.isfinite(b).all() and (a < b).all()):
            raise ValueError(f"bad panels [{a!r}, {b!r}]")
        self.a, self.b, self.mid, self.h = a, b, 0.5 * (a + b), 0.5 * (b - a)
        self.log_rule = _LOG_RULE + np.log(self.h)
        self.rows = np.arange(a.size)
        self.memo: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def halves(self, pick: np.ndarray) -> Panels:
        """The two halves of each panel ``pick`` selects, in order."""
        a, m, b = self.a[pick], self.mid[pick], self.b[pick]
        if not ((a < m) & (m < b)).all():
            raise QuadratureFailureError("quadrature panel too narrow to bisect misses its share")
        return Panels(np.stack((a, m), axis=1).ravel(), np.stack((m, b), axis=1).ravel())

    def nodes(self, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of panel i at order ORDERS[levels[i] - 1], none
        where levels[i] is 0 (or bisects), grouped by order: read-only, and
        kept per levels (:func:`kept`)."""

        def make():
            xs, ws = [np.empty(0)], [np.empty(0)]
            for lv in (np.flatnonzero(np.bincount(levels)[1:_BISECT]) + 1).tolist():
                x, w = gauss_legendre(ORDERS[lv - 1])
                pick = levels == lv
                xs.append((self.a[pick, None] + self.h[pick, None] * x).ravel())
                ws.append((self.h[pick, None] * w).ravel())
            return np.concatenate(xs), np.concatenate(ws)

        return kept(self.memo, levels.tobytes(), make)


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with its error bound and node count."""

    value: complex
    err_estimate: float
    nodes: int


def integrate_adaptive(f, panels: Panels, log_m, target: float,
                       max_nodes: int) -> QuadratureResult:
    """Integrate f over ``panels`` to an error bound of at most ``target``.

    ``log_m(p)`` gives, per rho of RHOS and panel of Panels p, the log of a
    bound on |f| over E_rho (+inf where f may not be analytic).  Of P panels,
    those whose own bound is at most target/2P take no node and the k others
    target/2k each, a bisected one's halves half its share.  The bar adds the
    values' bounds, the weights' rounding (3 u) and the sum's: numpy's
    pairwise sum of a complex row takes a term through at most 20 +
    log2(count) additions (tests/pairwise.py).
    Raises QuadratureFailureError before f is called where the nodes chosen,
    and 8 per panel left to bisect, exceed ``max_nodes`` or a panel to bisect
    has no double midpoint, and after it where f or a bound is not finite."""
    if not target > 0.0:
        raise ValueError(f"quadrature target must be positive, got {target!r}")
    log_share = math.log(0.5 * target / panels.a.size)
    picked, bound, nodes, cur = [], 0.0, 0, panels
    while True:
        log_e = (cur.log_rule + log_m(cur)[:, None, :]).min(axis=0)
        if cur is panels:  # the k panels whose own bound is over target/2P share target/2
            k = int(np.count_nonzero(log_e[0] > log_share))
            log_share = math.log(0.5 * target / max(k, 1))
        levels = (log_e <= log_share).argmax(axis=0)  # the first that fits
        miss = levels == _BISECT
        split = int(np.count_nonzero(miss))
        chosen = log_e[levels, cur.rows][~miss]  # nan or inf below, where nothing fits
        if not chosen.max(initial=-math.inf) <= 700.0:
            raise QuadratureFailureError(f"quadrature bound exp({chosen.max()}) on a panel")
        bound += float(np.exp(chosen).sum())
        nodes += int(_COUNT[levels].sum())
        picked.append((cur, levels))
        if nodes + 2 * ORDERS[0] * split > max_nodes:  # each half takes 4 or none
            raise QuadratureFailureError(f"quadrature node budget {max_nodes} exhausted: "
                                         f"{nodes} nodes chosen, {split} panels left to bisect")
        if not split:
            break
        cur, log_share = cur.halves(miss), log_share - math.log(2.0)
    xs, ws = map(np.concatenate, zip(*(p.nodes(lv) for p, lv in picked)))
    if not xs.size:
        return QuadratureResult(value=0j, err_estimate=bound, nodes=0)
    out = f(xs)
    ys, errs = out if isinstance(out, tuple) else (out, 0.0)
    value = complex(np.add.reduce(ws * ys))
    err = bound + float(ws @ (errs + (24 + xs.size.bit_length()) * EPS * np.abs(ys)))
    if not (math.isfinite(value.real) and math.isfinite(value.imag) and math.isfinite(err)):
        raise QuadratureFailureError(f"quadrature sum {value} with bound {err} is not finite")
    return QuadratureResult(value=value, err_estimate=err, nodes=int(xs.size))
