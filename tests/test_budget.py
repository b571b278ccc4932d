"""The series routes keep to their term budget: each either reports
``work <= max_terms`` or raises NonConvergentError.  ``u_direct`` and
``zeta_even`` sum no block the budget does not cover, the first one
included.  ``psi`` sums its one node first, at most 185 terms for any
double q, and then checks the count against the budget.

``product_ratio``'s series side is a cross-check whose budget stop is
documented as not an error: it always sums its first block of 33 terms,
and then doubles only within the budget, so its work is at most
max(33, max_terms).
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from cotlattice import (DomainError, NonConvergentError, Tolerance, psi,
                        u_direct, unit_circle_parts, zeta_even)
from cotlattice.zeta_product import ProductQuery, product_parts

BUDGET = hypothesis.settings(max_examples=200, derandomize=True, database=None,
                             deadline=None)


def work_of(route, n, log_r, phase, tol):
    """The work the route reports at a point drawn from (log_r, phase)."""
    r = 10.0 ** log_r
    if route == "u_direct":
        return u_direct(n, complex(r * math.cos(phase), r * math.sin(phase)), tol).work
    if route == "zeta_even":
        return zeta_even(n, tol).work
    # q = e^(-r), r in [1e-2, 1e2]: n = 1 sums Jacobi's dual below t = pi
    return psi(n, math.exp(-r), tol).work


@pytest.mark.parametrize("route", ["u_direct", "zeta_even", "psi"])
@BUDGET
@hypothesis.given(
    n=st.integers(1, 8),
    max_terms=st.integers(1, 200),
    log_r=st.floats(-2.0, 2.0),
    phase=st.floats(-math.pi, math.pi),
)
def test_work_within_max_terms(route, n, max_terms, log_r, phase):
    try:
        work = work_of(route, n, log_r, phase, Tolerance(max_terms=max_terms))
    except (NonConvergentError, DomainError):  # DomainError: a draw on a pole
        return
    assert work <= max_terms, (route, n, max_terms, log_r, phase, work)


@BUDGET
@hypothesis.given(
    n=st.integers(1, 8),
    max_terms=st.integers(1, 200),
    theta=st.floats(0.1, 3.0),
)
def test_unit_circle_parts_first_block_within_max_terms(n, max_terms, theta):
    # Its first block sums the terms at |k| <= 16: 33 of them.
    tol = Tolerance(max_terms=max_terms)
    try:
        unit_circle_parts(n, theta, tol)
    except (NonConvergentError, DomainError):  # DomainError: sin(n theta) = 0
        return
    assert max_terms >= 33, (n, max_terms, theta)


@BUDGET
@hypothesis.given(
    n=st.integers(1, 8),
    max_terms=st.integers(1, 300),
    x=st.floats(0.01, 0.999),
    y=st.floats(0.01, 0.999),
    log_rel=st.floats(-16.0, -6.0),
)
def test_product_series_within_max_terms(n, max_terms, x, y, log_rel):
    # The series side stops at its budget without raising: its first 33
    # terms always run, and a doubling of K only where its 2(2K) + 1 fit.
    x, y = sorted((x, y))
    tol = Tolerance(0.0, 10.0 ** log_rel, max_terms=max_terms)
    lhs, _ = product_parts(ProductQuery(n, x, y), tol)
    assert lhs.work <= max(33, max_terms), (n, max_terms, x, y, log_rel, lhs.work)
