"""Acceptance suite: ten binding criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they print; without ``-s`` pytest shows them for failures.
Expected values come from closed-form references (pi*cot, pi*coth,
sine/sinh ratios) and from test-local brute-force oracles with
Euler-Maclaurin or integral tails; nothing is compared against the
package's own route under test.
"""

import math
import cmath
import time

import numpy as np
import pytest

from cotlattice import (
    ALL_METHODS,
    Method,
    ProductQuery,
    Tolerance,
    phi,
    product_ratio,
    u_closed,
    u_direct,
    u_theta,
    unit_circle_parts,
    verify_points,
    zeta_even,
)
from cotlattice.numerics import zeta_tail
from cotlattice.verify import DEFAULT_BENCH_GRID

def _report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_closed_form_matches_cotangent_references():
    """200 pseudo-random strip points, both classical orders, rel 1e-10."""
    rng = np.random.default_rng(20260814)
    res = rng.uniform(1e-6, 1.0 - 1e-6, 200)
    ims = rng.uniform(-0.999999, 0.999999, 200)
    worst = 0.0
    for re, im in zip(res, ims):
        z = complex(re, im)
        ref1 = math.pi / cmath.tan(math.pi * z)
        ref2 = (math.pi / z) * (cmath.cosh(math.pi * z) / cmath.sinh(math.pi * z))
        d1 = abs(u_closed(1, z).value - ref1) / abs(ref1)
        d2 = abs(u_closed(2, z).value - ref2) / abs(ref2)
        worst = max(worst, d1, d2)
    _report(1, worst <= 1e-10,
            f"closed form vs pi*cot / (pi/z)*coth on 200 strip points, "
            f"worst rel err {worst:.2e} (limit 1e-10)")


def test_criterion_02_methods_cross_validate():
    """All applicable methods agree pairwise within combined bounds."""
    points = tuple((n, z) for n in (2, 4, 8)
                   for z in (0.3, 0.7, 1.5, 2.5, 0.5 + 0.5j))
    tol = Tolerance(abs_tol=9e-9, rel_tol=0.0, max_terms=2_000_000_000)
    rep = verify_points(points, ALL_METHODS, tol)
    errs_ok = all(r.err_estimate <= 1e-8 for r in rep.runs if r.ok)
    no_failures = rep.summary.runs_failed == 0
    _report(2, rep.all_pass and errs_ok and no_failures,
            f"{rep.summary.pairs_passed}/{rep.summary.pairs_total} method "
            f"pairs within combined bounds, max delta "
            f"{rep.summary.worst.delta:.2e}, all err_estimates <= 1e-8")


def test_criterion_03_closed_vs_direct_general_orders():
    """Orders 3, 5, 6, 7 on the real grid 0.1..0.9 agree to 1e-9, or to 2 ulp
    of the larger value where that is more: U_7(0.1) ~ 1e7 has an ulp of 1.86e-9."""
    tol = Tolerance(abs_tol=4e-10, rel_tol=0.0)
    worst = worst_ratio = 0.0
    for n in (3, 5, 6, 7):
        for k in range(1, 10):
            z = k / 10.0
            a, b = u_closed(n, z).value, u_direct(n, z, tol).value
            d = abs(a - b)
            worst = max(worst, d)
            worst_ratio = max(worst_ratio, d / max(1e-9, 2 * math.ulp(max(abs(a), abs(b)))))
    _report(3, worst_ratio <= 1.0,
            f"closed vs direct over n in (3,5,6,7), z = 0.1..0.9, "
            f"worst abs diff {worst:.2e}, worst diff/limit {worst_ratio:.2f} "
            f"(limit max(1e-9, 2 ulp of the larger value))")


def test_criterion_04_zeta_values():
    """zeta(2) and zeta(4) match independent tail-corrected sums."""

    def oracle(s):
        cutoff = 20_000
        partial = math.fsum(float(k) ** -s for k in range(1, cutoff + 1))
        return partial + (cutoff + 0.5) ** (1.0 - s) / (s - 1.0)

    z2 = zeta_even(1).value.real
    z4 = zeta_even(2).value.real
    d2 = abs(z2 - oracle(2.0))
    d4 = abs(z4 - oracle(4.0))
    digits_ok = (abs(z2 - 1.6449340668482264) < 1e-10
                 and abs(z4 - 1.0823232337111382) < 1e-10)
    _report(4, d2 <= 1e-10 and d4 <= 1e-10 and digits_ok,
            f"zeta(2)={z2:.16f}, zeta(4)={z4:.16f}; oracle diffs "
            f"{d2:.2e}, {d4:.2e} (limit 1e-10)")


def test_criterion_05_product_identities():
    """Doubling value, multiplicative chain, and exact degenerate case."""
    doubling = product_ratio(ProductQuery(1, 0.25, 0.5)).value
    d_two = abs(doubling - 2.0)
    ab = product_ratio(ProductQuery(1, 0.2, 0.4)).value
    bc = product_ratio(ProductQuery(1, 0.4, 0.6)).value
    ac = product_ratio(ProductQuery(1, 0.2, 0.6)).value
    d_chain = abs(ab * bc - ac)
    degenerate = all(product_ratio(ProductQuery(n, x, x)).value == 1.0 + 0j
                     for n, x in ((1, 0.3), (2, 0.42), (5, 0.77)))
    _report(5, d_two <= 1e-8 and d_chain <= 1e-8 and degenerate,
            f"ratio(1,1/4,1/2)-2 = {d_two:.2e}, chain defect {d_chain:.2e} "
            f"(limits 1e-8), ratio(n,x,x) == 1 exactly: {degenerate}")


def test_criterion_06_theta_route():
    """Theta integral reaches U_2(1) = pi*coth(pi) inside 1e4 nodes."""
    res = u_theta(1, 1.0)
    ref = math.pi / math.tanh(math.pi)
    d = abs(res.value - ref)
    _report(6, d <= 1e-8 and res.work <= 10_000,
            f"theta route vs pi*coth(pi): diff {d:.2e} (limit 1e-8), "
            f"{res.work} nodes (limit 10000)")


def test_criterion_07_large_argument_asymptotics():
    """U_2(100) equals pi/100 to 1e-12 relative."""
    res = u_closed(2, 100.0)
    ref = math.pi / 100.0
    rel = abs(res.value - ref) / ref
    _report(7, rel <= 1e-12,
            f"u_closed(2,100) vs pi/100: rel err {rel:.2e} (limit 1e-12)")


def _circle_rhs_oracle(n, theta):
    """sum_k k^n / (k^2n + 2 k^n cos(n theta) + 1) over all integers k.

    Brute force to a cutoff, then Euler-Maclaurin zeta tails on the
    asymptotic expansion of the terms; remainder constants are crude
    upper bounds valid for the cutoffs used here.
    """
    c = math.cos(n * theta)
    if n % 2 == 0:
        cutoff = 256
        k = np.arange(1.0, cutoff + 1.0)
        terms = k**n / (k ** (2 * n) + 2.0 * c * k**n + 1.0)
        t1, r1 = zeta_tail(float(n), cutoff)
        t2, r2 = zeta_tail(2.0 * n, cutoff)
        est = 2.0 * (math.fsum(terms) + t1 - 2.0 * c * t2)
        errb = 2.0 * (r1 + 2.0 * abs(c) * r2
                      + 6.0 * cutoff ** (1 - 3.0 * n) / (3.0 * n - 1))
    else:
        cutoff = 10_000
        k = np.arange(1.0, cutoff + 1.0)
        k2n = k ** (2 * n)
        pairs = -4.0 * c * k2n / ((k2n + 1.0) ** 2 - 4.0 * c * c * k2n)
        t2, r2 = zeta_tail(2.0 * n, cutoff)
        est = math.fsum(pairs) - 4.0 * c * t2
        errb = 4.0 * abs(c) * r2 + 8.5 * abs(c) * cutoff ** (1 - 4.0 * n) / (4.0 * n - 1)
    return est, errb


def test_criterion_08_unit_circle_decomposition():
    """Re + cot(n theta) Im reproduces the real lattice sum to 1e-9."""
    worst = 0.0
    for n in (1, 2, 3):
        for theta in (math.pi / 7, math.pi / 5):
            re, im = unit_circle_parts(n, theta)
            lhs = re + im * math.cos(n * theta) / math.sin(n * theta)
            rhs, oracle_err = _circle_rhs_oracle(n, theta)
            assert oracle_err < 1e-10
            worst = max(worst, abs(lhs - rhs))
    _report(8, worst <= 1e-9,
            f"re + cot(n theta) im vs lattice-sum oracle over n in (1,2,3), "
            f"theta in (pi/7, pi/5): worst diff {worst:.2e} (limit 1e-9)")


def test_criterion_09_dyadic_recursion():
    """phi_2 equals U_4 to 1e-9 with negligible imaginary residue."""
    worst_d = 0.0
    worst_imag_rel = 0.0
    for z in (0.3, 0.7, 1.2):
        res = phi(2, z)
        ref = u_closed(4, z)
        worst_d = max(worst_d, abs(res.value - ref.value))
        worst_imag_rel = max(worst_imag_rel,
                             abs(res.value.imag) / abs(res.value))
    _report(9, worst_d <= 1e-9 and worst_imag_rel <= 1e-10,
            f"phi(2,z) vs u_closed(4,z) on (0.3,0.7,1.2): worst diff "
            f"{worst_d:.2e} (limit 1e-9), worst imag residue "
            f"{worst_imag_rel:.2e} of value (limit 1e-10)")


def test_criterion_10_work_scaling():
    """Closed work stays n; direct work grows with |z| in the bench."""
    closed_const = all(
        u_closed(n, z).work == n
        for n in (2, 5) for z in (0.3, 12.3, 1.0e4 + 0.5))
    grid = DEFAULT_BENCH_GRID
    points = tuple((n, z) for n in grid.n_values for z in grid.z_points)
    rows = verify_points(points, grid.methods, grid.tol).runs
    ok = all(r.error is None for r in rows) and closed_const
    profile = {}
    for n in sorted({r.n for r in rows}):
        direct = [r.work for r in rows
                  if r.n == n and r.method is Method.DIRECT_SUM]
        closed = [r.work for r in rows
                  if r.n == n and r.method is Method.CLOSED_FORM]
        ok = ok and direct == sorted(direct) and direct[-1] > direct[0]
        ok = ok and all(w == n for w in closed)
        profile[n] = direct
    _report(10, ok,
            f"closed work == n at all scales; direct work grows with |z|: "
            f"{profile}")


@pytest.fixture(scope="module", autouse=True)
def _wall_clock_budget():
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    print(f"acceptance wall time: {elapsed:.1f}s (budget 60s)")
    assert elapsed < 60.0, f"acceptance suite took {elapsed:.1f}s"
