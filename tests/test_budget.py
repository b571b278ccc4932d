"""The series routes keep to their term budget: each either reports
``work <= max_terms`` or raises NonConvergentError.  ``u_direct`` and
``zeta_even`` sum no block the budget does not cover, the first one
included.  ``psi`` sums its one node first, at most 185 terms for any
double q, and then checks the count against the budget.

``product_ratio`` is not among them: its series side is a cross-check
whose budget stop is documented as not an error.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from cotlattice import (DomainError, NonConvergentError, Tolerance, psi,
                        u_direct, unit_circle_parts, zeta_even)

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
