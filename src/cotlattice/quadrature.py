"""Adaptive Gauss-Kronrod quadrature for smooth complex integrands.

One panel applies the 15-point Kronrod rule with its embedded 7-point
Gauss rule; the difference of the two drives the classical QUADPACK
error model

    err = resasc * min(1, (200 |K15 - G7| / resasc)^1.5)

floored at 50 eps * resabs, where resabs integrates |f| and resasc
integrates |f - mean|.  Each round bisects the largest panels while the
rest's errors sum above target (one split at a time would split them too),
and gives up when the node budget cannot pay for that or when the resolved
panels' floors exceed the largest reachable target, which no split lowers.

Integrands receive a numpy array of abscissae and must return one value
(real or complex) per node, 15 per panel; the panels of one round, the
first ones or the halves of that round's bisections, share one call.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailureError
from .numerics import EPS

__all__ = ["integrate_adaptive", "QuadratureResult"]

# 15-point Kronrod abscissae (positive half, descending) with the
# 7-point Gauss rule embedded at the odd positions.
_XGK = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
                 0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
                 0.2077849550078985, 0.0])
_WGK = np.array([0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
                 0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
                 0.2044329400752989, 0.2094821410847278])
_WG = np.array([0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
                0.4179591836734694])

#: All 15 Kronrod nodes on [-1, 1], ascending.
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
#: Kronrod weights matching _NODES.
_WEIGHTS_K = np.concatenate((_WGK[:-1], _WGK[::-1]))
#: Columns: the Kronrod weights, and Kronrod minus Gauss weights (the
#: Gauss rule scattered onto the 15 Kronrod positions, zero off-rule).
_WEIGHTS_KD = np.stack((_WEIGHTS_K, _WEIGHTS_K), axis=1)
_WEIGHTS_KD[1:14:2, 1] -= np.concatenate((_WG[:-1], _WG[::-1]))


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with its accumulated error bound and node count."""

    value: complex
    err_estimate: float
    nodes: int


def _gk15(f, a, b) -> list[tuple[complex, float, float]]:
    """Kronrod panels [a[i], b[i]], evaluated in one call of f on their 15
    nodes each: one (value, err_model, resabs) per panel."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    h = 0.5 * (b - a)
    ys = np.asarray(f(((a + h)[:, None] + h[:, None] * _NODES).ravel())).reshape(len(a), 15)
    # einsum, not @: a BLAS product may round a row differently by batch size
    kd = np.einsum("ij,jk->ik", ys, _WEIGHTS_KD)
    absy = np.einsum("ij,j->i", np.abs(ys), _WEIGHTS_K)
    dev = np.einsum("ij,j->i", np.abs(ys - 0.5 * kd[:, :1]), _WEIGHTS_K)  # mean = resk/(b-a)
    out = []
    for hh, (k, d), ab, dv in zip(h.tolist(), kd.tolist(), absy.tolist(), dev.tolist()):
        diff, resabs, resasc = abs(hh * d), abs(hh) * ab, abs(hh) * dv
        err = resasc * min(1.0, 200.0 * diff / resasc) ** 1.5 if resasc and diff else diff
        out.append((hh * k, max(err, 50.0 * EPS * resabs), resabs))
    return out


def integrate_adaptive(
    f,
    a: float,
    b: float,
    abs_tol: float,
    rel_tol: float,
    max_nodes: int,
    breaks: tuple[float, ...] = (),
) -> QuadratureResult:
    """Integrate f over [a, b] to max(abs_tol, rel_tol * |integral|).

    Args:
        f: vectorized integrand, called with a numpy array of abscissae.
        a, b: finite interval endpoints, a < b.
        abs_tol, rel_tol: error targets (at least one positive).
        max_nodes: total node budget; each panel evaluation costs 15.
        breaks: ascending interior points that start as panel edges.

    Raises:
        QuadratureFailureError: budget exhausted, the resolved panels'
            floors above the largest reachable target, or a panel too
            narrow to bisect still dominates the error.
    """
    edges = (a, *breaks, b)
    if not (all(map(math.isfinite, edges))
            and all(x < y for x, y in zip(edges, edges[1:]))):
        raise ValueError(f"bad interval [{a!r}, {b!r}] with breaks {breaks!r}")
    # Heap of (-err, seq, a, b, value, err, floor); seq makes ordering total
    # and deterministic.  Each round evaluates the panels lo[i]..hi[i] that
    # replace the popped ones (none, value 0, in the first round).
    heap: list = []
    seq = itertools.count()
    nodes = 0
    total_value = total_err = total_floor = pval = perr = pfloor = 0.0
    lo, hi = edges[:-1], edges[1:]
    while True:
        panels = _gk15(f, lo, hi)
        nodes += 15 * len(panels)
        total_value += sum(p[0] for p in panels) - pval
        total_err += sum(p[1] for p in panels) - perr
        # A panel within 100x of its floor is resolved; bisection only splits its resabs.
        floors = [50.0 * EPS * ra if e <= 5000.0 * EPS * ra else 0.0 for _, e, ra in panels]
        total_floor += sum(floors) - pfloor
        for pa, pb, (v, e, _), fl in zip(lo, hi, panels, floors):
            heapq.heappush(heap, (-e, next(seq), pa, pb, v, e, fl))
        target = max(abs_tol, rel_tol * abs(total_value))
        if total_err <= target:
            break
        # |integral| <= |total_value| + total_err, so no later target exceeds this one.
        reachable = max(abs_tol, rel_tol * (abs(total_value) + total_err))
        if total_floor > reachable:
            raise QuadratureFailureError(
                f"quadrature floor {total_floor:.3g} of resolved panels above the "
                f"largest reachable target {reachable:.3g} after {nodes} nodes")
        split, rest = [], total_err  # the panels this round must bisect
        while heap and rest > target:
            split.append(heapq.heappop(heap))
            rest -= split[-1][5]
        if nodes + 30 * len(split) > max_nodes:
            raise QuadratureFailureError(
                f"quadrature error bound {total_err:.3g} above target {target:.3g} "
                f"with node budget {max_nodes} exhausted ({nodes} used)")
        lo, hi = [], []
        for _, _, pa, pb, _, perr, _ in split:
            mid = 0.5 * (pa + pb)
            if not (pa < mid < pb):
                raise QuadratureFailureError(
                    f"panel [{pa!r}, {pb!r}] cannot be bisected further but its "
                    f"error {perr:.3g} dominates the bound {total_err:.3g}")
            lo += (pa, mid)
            hi += (mid, pb)
        pval, perr, pfloor = (sum(p[i] for p in split) for i in (4, 5, 6))
    # Recompute sums from live panels once at the end; the incremental
    # running totals accumulate cancellation over many splits.
    return QuadratureResult(value=complex(sum(item[4] for item in heap)),
                            err_estimate=float(sum(item[5] for item in heap)), nodes=nodes)
