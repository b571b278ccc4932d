"""Audit: err_estimate is a real bound, against an independent oracle.

The oracle is the raw lattice series in 40-digit arithmetic: the
symmetric partial sum over |k| <= K0 term by term, plus ``mp.nsum`` of
the rest.  It never uses the closed form.  A seeded hypothesis property
checks |value - oracle| <= err_estimate for ``u_direct`` over orders
1..64 and |z| in [1e-3, 1e3], real and complex, and for the series side
of the product ratio.  The points where earlier rounding models claimed
too little are pinned as explicit cases: on the direct route, on the
closed form and the dyadic recursion (which once left out the rounding
of the power of z they divide by), on the closed side of the product
ratio, and on the theta route.  A second property audits the theta route
at |z| from 1e3 to 1e6 against the integral of the lattice sum.  A
third holds the closed form's vector pass and its scalar loop, next to
poles too, within their bar plus a first-order charge for the rounding of
the kernel's arguments, which the bar does not yet include.  A seeded
loop holds the dyadic route within its bar over all ten levels and
reports the median ratio of bar to actual error.
"""

import cmath
import math
import random
import statistics

import pytest

mp = pytest.importorskip("mpmath").mp
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from cotlattice import (DomainError, KernelSingularError, ProductQuery, Tolerance,
                        ToleranceError, phi, product_ratio, u_closed, u_direct, u_theta)
from cotlattice import closed
from cotlattice.numerics import EPS
from cotlattice.zeta_product import product_parts

AUDIT = hypothesis.settings(max_examples=100, derandomize=True, database=None,
                            deadline=None)


#: The largest |z| lattice_oracle takes.  Its head sums about 2|z| terms in
#: mpmath, unbounded in memory and time; the points audited here have |z| <= 1e3.
ORACLE_MAX_Z = 1e4


def lattice_oracle(n, z):
    """U_n(z) from the symmetric series: 1/z^n + sum_{k>=1} pair terms."""
    if not abs(z) <= ORACLE_MAX_Z:
        raise ValueError(f"lattice_oracle sums about 2|z| terms: |z| = {abs(z):.3g} "
                         f"exceeds {ORACLE_MAX_Z:g}")
    with mp.workdps(40):
        w = mp.mpc(z) ** n
        if n % 2:
            term = lambda k: 2 * w / (w * w - mp.mpf(k) ** (2 * n))
        else:
            term = lambda k: 2 / (mp.mpf(k) ** n + w)
        k0 = max(16, 2 * math.ceil(abs(z)))
        head = [1 / w] + [term(k) for k in range(1, k0 + 1)]
        # nsum's tolerance is absolute, so the tail is summed relative to
        # the magnitude of the head.  Euler-Maclaurin summation: Richardson
        # extrapolation misses by O(1) once |z| is large (the coefficients
        # in 1/k grow like |z|^2).
        scale = mp.fsum(abs(t) for t in head)
        tail = mp.nsum(lambda k: term(k) / scale, [k0 + 1, mp.inf], method="e")
        return complex(mp.fsum(head) + scale * tail)


def lattice_integral(n, z):
    """U_n(z) for even n and Re z^n > 0 at |z| >= 1e3, as the integral of
    its summand: 2 pi g / sin(pi g) s^(g - 1), s = z^n, g = 1/n.

    U_n(z) = sum over all integers k of f(k), f(x) = 1/(x^n + s), and Poisson
    summation adds to the integral the terms f^(m), m != 0.  The poles of f
    lie at least d = |z| sin(pi/(2n)) off the real axis once Re s > 0, and each
    |f^(m)| <= pi |z|^(1-n) e^(-2 pi |m| d): below e^(-150) of the integral
    for n <= 64 and |z| >= 1e3.
    """
    with mp.workdps(40):
        g = mp.mpf(1) / n
        return complex(2 * mp.pi * g / mp.sin(mp.pi * g) * (mp.mpc(z) ** n) ** (g - 1))


def product_oracle(n, x, y):
    """prod_k ((y^n + k^n)/(x^n + k^n))^2 as exp of a series of logs."""
    with mp.workdps(40):
        x, y = mp.mpf(x), mp.mpf(y)
        if n % 2:
            pair = lambda k: mp.log((mp.mpf(k) ** (2 * n) - y ** (2 * n))
                                    / (mp.mpf(k) ** (2 * n) - x ** (2 * n)))
        else:
            pair = lambda k: 2 * mp.log((y ** n + mp.mpf(k) ** n) / (x ** n + mp.mpf(k) ** n))
        return float(mp.exp(2 * (n * mp.log(y / x) + mp.nsum(pair, [1, mp.inf], method="richardson"))))


@pytest.mark.parametrize("z", [1e5, -2e4j, 1e150, float("nan")])
def test_oracle_refuses_large_z(z):
    with pytest.raises(ValueError, match="exceeds 10000"):
        lattice_oracle(2, z)


def check_direct(n, z):
    try:
        res = u_direct(n, z)
    except DomainError:
        return  # a pole of the drawn order; nothing to audit
    miss = abs(res.value - lattice_oracle(n, z))
    assert miss <= res.err_estimate, (n, z, miss, res.err_estimate)


@pytest.mark.parametrize("n, z", [
    (64, 0.2905),    # |U| ~ 2.3e34: the k = 0 term carries ~n eps from z^n
    (32, 1.7588),
    (3, -1.0055),    # cancellation next to the pole at z = -1
    (1, 1000.5),
    (2, 0.3 + 0.2j),
])
def test_reported_points(n, z):
    check_direct(n, z)


@pytest.mark.parametrize("evaluate, n, z", [
    # z^(n-1) by repeated squaring carries up to (n - 2) u of |U| (complex:
    # sqrt(5) (n - 2) u); a bar without it missed by 6.3x and 5.0x.
    (u_closed, 255, 0.27055805368211544 - 0.04357393199868767j),
    (u_closed, 272, -0.18869572332203458),
    # phi divides by powers of z; without their rounding, bars missed by 2.3x and 1.4x.
    (phi, 10, 0.5770014910274417 - 0.10082659174937274j),
    (phi, 9, -0.1708024709037915 + 0.24294684362824517j),
])
def test_power_rounding_points(evaluate, n, z):
    res = evaluate(n, z)
    miss = abs(res.value - lattice_oracle(n if evaluate is u_closed else 2**n, z))
    assert miss <= res.err_estimate, (n, z, miss, res.err_estimate)


def test_theta_default_tolerance_point():
    # Uncut first panels (0, u*, tail edge, 1) claimed 4.59e-13 here for a miss of 6.02e-13.
    z = -2.998974576517964
    res = u_theta(3, z)
    assert abs(res.value - lattice_oracle(6, z)) <= res.err_estimate


@AUDIT
@hypothesis.given(
    n=st.integers(1, 32),
    log_r=st.floats(3.0, 6.0),
    real=st.booleans(),
    turn=st.floats(-0.99, 0.99),
    tight=st.booleans(),
)
def test_theta_bound_holds_at_large_z(n, log_r, real, turn, tight):
    # Re z^(2n) > 0 holds for |arg z| < pi/(4n); turn picks the arg in that cone.
    phase = turn * math.pi / (4 * n)
    z = 10.0 ** log_r * (1.0 if real else complex(math.cos(phase), math.sin(phase)))
    try:
        res = u_theta(n, z, Tolerance(0.0, 1e-13) if tight else Tolerance())
    except (DomainError, ToleranceError):
        return  # z^(2n) past the double range, or a target the quadrature refuses
    miss = abs(res.value - lattice_integral(2 * n, z))
    assert miss <= res.err_estimate, (n, z, tight, miss, res.err_estimate)


@AUDIT
@hypothesis.given(
    n=st.integers(1, 64),
    log_r=st.floats(-3.0, 3.0),
    real=st.booleans(),
    phase=st.floats(-math.pi, math.pi),
)
def test_direct_bound_holds(n, log_r, real, phase):
    r = 10.0 ** log_r
    z = complex(math.copysign(r, phase), 0.0) if real else complex(
        r * math.cos(phase), r * math.sin(phase))
    check_direct(n, z)


def argument_charge(n, z):
    """First-order effect on U_n(z) of rounding the closed form's half
    arguments u = w rho / 2 and u' = w conj(rho) / 2, w = 2 pi z: each
    within (ka + kb + 2) |w| eps / 2 (the kernel table's argument-error
    constants, plus the rounding of w), and the kernel term
    [rho cot u + conj(rho) cot u'] / 2 moves by |du| / (2 |sin u|^2) per
    half.  The closed form's bar does not charge this yet, and next to a
    pole it dominates the error of both kernel paths."""
    w = 2.0 * math.pi * z

    def inv_sin2(u):  # 1/|sin u|^2, 0 where it underflows
        return 0.0 if abs(u.imag) > 300.0 else 1.0 / abs(cmath.sin(u)) ** 2

    total = 0.0
    for a, b, mult, ka, kb in closed.kernel_rows(n):
        du = (ka + kb + 2.0) * abs(w) * EPS / 2.0
        total += mult * du * (inv_sin2(w * complex(a, b) / 2.0)
                              + inv_sin2(w * complex(a, -b) / 2.0)) / 2.0
    return math.pi / (n * abs(z) ** (n - 1)) * total


@AUDIT
@hypothesis.given(
    n=st.integers(15, 1024),
    log_r=st.floats(-9.0, 3.0),
    real=st.booleans(),
    phase=st.floats(-math.pi, math.pi),
    near=st.sampled_from((0.0, 1e-9, 1e-6, 1e-3)),
    root=st.integers(0, 1023),
)
def test_closed_pass_within_bar_and_argument_charge(n, log_r, real, phase, near, root):
    # Orders the vector pass takes, at log-uniform |z|, or at relative
    # distance `near` from the pole k e^(i (2 root + 1) pi / n) on a root ray.
    # Both kernel paths round the half arguments, each its own way, so at a
    # point where the bar misses that rounding either path may miss where
    # the other does not.  Both must stay within the bar plus its charge.
    count = (n + 1) // 2 if n % 2 else (n + 2) // 4
    hypothesis.assume(count >= closed._CROSSOVER)
    r = 10.0 ** log_r
    if near:
        k = max(1, min(round(r), math.floor(10.0 ** (280.0 / n))))
        z = k * (1.0 + near) * cmath.exp(1j * math.pi * (2 * (root % n) + 1) / n)
    else:
        z = complex(math.copysign(r, phase), 0.0) if real else cmath.rect(r, phase)
    try:
        res = u_closed(n, z)
    except (DomainError, KernelSingularError):
        return  # past the double range, or a pole the gate or the kernel refuses
    saved, closed._CROSSOVER = closed._CROSSOVER, math.inf
    try:
        loop = u_closed(n, z)
    finally:
        closed._CROSSOVER = saved
    ref = lattice_oracle(n, z)
    charge = argument_charge(n, z)
    for got in (res, loop):
        assert abs(got.value - ref) <= got.err_estimate + charge, (n, z, got, loop, charge)


def pole_distance(n, z):
    """Relative distance from z to the nearest pole k e^(i pi (2j + 1) / n)."""
    k = max(1, round(abs(z)))
    j = round((cmath.phase(z) * n / math.pi - 1.0) / 2.0)
    return min(abs(z - k * cmath.exp(1j * math.pi * (2 * i + 1) / n))
               for i in (j - 1, j, j + 1)) / abs(z)


def test_phi_bound_holds():
    # Seeded points over m = 1..10, |z| log-uniform within 1e-3..1e3 where
    # |z|^n stays inside 1e+-280, real and complex.  Points within 1e-3 of a
    # pole are skipped: misses there come from the leaves' closed-form bar
    # (ROADMAP item 1), not from the dyadic level.
    rng = random.Random(22)
    checked, ratios, misses = 0, [], []
    while checked < 100:
        m = rng.randint(1, 10)
        n = 2**m
        lo, hi = max(-3.0, -280.0 / n), min(3.0, 280.0 / n)
        r = 10.0 ** rng.uniform(lo, hi)
        z = complex(rng.choice((r, -r)), 0.0) if rng.random() < 0.5 else \
            cmath.rect(r, rng.uniform(-math.pi, math.pi))
        if pole_distance(n, z) < 1e-3:
            continue
        res = phi(m, z)
        miss = abs(res.value - lattice_oracle(n, z))
        checked += 1
        if miss > res.err_estimate:
            misses.append((m, z, miss / res.err_estimate))
        elif miss > 0:
            ratios.append(res.err_estimate / miss)
    median = statistics.median(ratios)
    print(f"phi: {checked} points, median bar/actual {median:.1f}")
    assert not misses, misses
    # A bar far above the errors it bounds would certify nothing.
    assert median < 50.0, median


@pytest.mark.parametrize("m, z", [
    # About 1e-7 off a pole, where a leaf sits next to a pole of U_2 and the
    # rounding of its argument dominates: a bar without it missed by 1.5e5x,
    # 7.4e4x and 6.1e4x.
    (3, -3.695518508817107 + 1.5307334615072647j),
    (4, 4.903926369922797 - 0.9754523118200334j),
    (7, 1.8820899322342983 + 5.6971692541546295j),
])
def test_phi_near_pole_points(m, z):
    res = phi(m, z)
    miss = abs(res.value - lattice_oracle(2**m, z))
    assert miss <= res.err_estimate, (m, z, miss, res.err_estimate)


def test_closed_product_near_one():
    # On the axis ray sin(pi y a) = -sin(pi y) ~ pi (1 - y): the closed side
    # loses ~1/(1 - y) of its relative accuracy, which a flat charge missed.
    n, x, y = 3, 0.9916078, 0.9928835
    _, rhs = product_parts(ProductQuery(n, x, y))
    assert abs(rhs.value.real - product_oracle(n, x, y)) <= rhs.err_estimate


@AUDIT
@hypothesis.given(
    n=st.integers(1, 8),
    x=st.floats(0.01, 0.99),
    y=st.floats(0.01, 0.99),
)
def test_product_series_bound_holds(n, x, y):
    x, y = min(x, y), max(x, y)
    hypothesis.assume(x < y)
    query = ProductQuery(n, x, y)
    ref = product_oracle(n, x, y)
    lhs, _ = product_parts(query)
    assert abs(lhs.value.real - ref) <= lhs.err_estimate, (n, x, y)
    res = product_ratio(query)
    assert abs(res.value.real - ref) <= res.err_estimate, (n, x, y)
