"""Audit: every err_estimate of the direct route is a real bound.

The oracle is the raw lattice series in 40-digit arithmetic: the
symmetric partial sum over |k| <= K0 term by term, plus ``mp.nsum`` of
the rest.  It never uses the closed form.  A seeded hypothesis property
checks |value - oracle| <= err_estimate for ``u_direct`` over orders
1..64 and |z| in [1e-3, 1e3], real and complex, and for the series side
of the product ratio; the points where earlier rounding models claimed
too little are pinned as explicit cases, one of them on the closed side
of the product ratio.
"""

import math

import pytest

mp = pytest.importorskip("mpmath").mp
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from cotlattice import DomainError, ProductQuery, product_ratio, u_direct
from cotlattice.zeta_product import product_parts

AUDIT = hypothesis.settings(max_examples=100, derandomize=True, database=None,
                            deadline=None)


def lattice_oracle(n, z):
    """U_n(z) from the symmetric series: 1/z^n + sum_{k>=1} pair terms."""
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
