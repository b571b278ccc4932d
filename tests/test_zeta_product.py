"""Tests for the zeta extraction and the squared product ratio."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

from cotlattice import (
    DEFAULT_TOLERANCE,
    DomainError,
    NonConvergentError,
    Method,
    ProductQuery,
    Tolerance,
    product_ratio,
    zeta_contour,
    zeta_even,
)
from cotlattice.zeta_product import compose_ratio, product_parts

ZETA2 = math.pi**2 / 6.0
ZETA4 = math.pi**4 / 90.0


def zeta_oracle(s: float, cutoff: int = 20_000) -> float:
    """Brute-force zeta(s) with a midpoint integral tail."""
    partial = math.fsum(float(k) ** -s for k in range(1, cutoff + 1))
    return partial + (cutoff + 0.5) ** (1.0 - s) / (s - 1.0)


class TestZetaEven:
    """zeta_even computes zeta(2n) by cancellation-free series summation."""

    def test_zeta2(self):
        res = zeta_even(1)
        assert abs(res.value.real - ZETA2) <= res.err_estimate
        assert abs(res.value.real - zeta_oracle(2.0)) < 1e-10
        assert res.method is Method.DIRECT_SUM

    def test_zeta4(self):
        res = zeta_even(2)
        assert abs(res.value.real - ZETA4) <= res.err_estimate
        assert abs(res.value.real - zeta_oracle(4.0)) < 1e-10

    def test_zeta16(self):
        res = zeta_even(8)
        assert abs(res.value.real - 1.0000152822594086) < 1e-14

    def test_err_meets_default_target(self):
        for n in (1, 2, 3, 8):
            res = zeta_even(n)
            assert res.err_estimate <= 1e-10 * abs(res.value) + 1e-10

    def test_work_is_cutoff(self):
        res = zeta_even(1)
        assert res.work >= 16 and res.work & (res.work - 1) == 0

    def test_budget_exhaustion(self):
        with pytest.raises(NonConvergentError):
            zeta_even(1, Tolerance(abs_tol=1e-15, rel_tol=1e-15, max_terms=16))

    def test_first_block_keeps_to_the_budget(self):
        # The first block sums 16 terms, over a budget of 5 even where
        # its tail bound would meet the target.
        with pytest.raises(NonConvergentError) as exc:
            zeta_even(3, Tolerance(max_terms=5))
        assert str(exc.value) == ("zeta_even(n=3): starting cutoff 16 already "
                                  "exceeds max_terms=5")

    def test_budget_message_quotes_the_quarter_target(self):
        # The bound is compared against a quarter of the target
        # 1e-10 * zeta(2) = 1.64e-10.
        with pytest.raises(NonConvergentError) as exc:
            zeta_even(1, Tolerance(max_terms=20))
        assert str(exc.value) == ("zeta tail bound 5.8e-11 above target/4 = 4.11e-11 "
                                  "at cutoff 16 with max_terms=20")

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            zeta_even(0)


def machin_pi() -> Fraction:
    """pi to 50 digits: Machin's 16 atan(1/5) - 4 atan(1/239) in integers."""
    scale = 10**60

    def atan_inv(x):
        total, power, k = 0, scale // x, 0
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= x * x
            k += 1
        return total

    return Fraction(16 * atan_inv(5) - 4 * atan_inv(239), scale)


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Exact B_m from sum_{k<=m} C(m+1, k) B_k = 0."""
    if m == 0:
        return Fraction(1)
    return -sum(math.comb(m + 1, k) * bernoulli(k) for k in range(m)) / (m + 1)


def euler_zeta(n: int) -> Fraction:
    """zeta(2n) = (-1)^(n+1) B_2n (2 pi)^(2n) / (2 (2n)!), independent of
    mpmath and of the closed form."""
    return ((-1) ** (n + 1) * bernoulli(2 * n) * (2 * machin_pi()) ** (2 * n)
            / (2 * math.factorial(2 * n)))


class TestZetaLimitDiagnostic:
    """The limit side of zeta: the contour mean of U_2n(z) - z^(-2n),
    with a bar that holds."""

    def test_small_index_accurate(self):
        res = zeta_contour(1)
        assert abs(res.value.real - ZETA2) <= res.err_estimate <= 1e-13
        assert res.method is Method.CLOSED_FORM

    def test_index_two(self):
        res = zeta_contour(2)
        assert abs(res.value.real - ZETA4) <= res.err_estimate

    def test_large_index_accurate(self):
        # the Richardson ladder it replaces was off by 1e3 here
        res = zeta_contour(8)
        assert abs(res.value.real - 1.0000152822594086) <= 1e-13
        far = zeta_contour(200)
        assert abs(far.value.real - 1.0) <= far.err_estimate <= 1e-12

    def test_bernoulli_oracle(self):
        for n in range(1, 65):
            res = zeta_contour(n)
            miss = abs(Fraction(res.value.real) - euler_zeta(n))
            assert miss <= Fraction(res.err_estimate), n
            assert res.err_estimate <= 1e-13, n
            assert res.value.imag == 0.0

    def test_work_is_node_terms(self):
        for n in (1, 3, 8):
            assert zeta_contour(n).work == 32 * 2 * n


class TestProductQuery:
    """ProductQuery enforces 0 < x <= y < 1."""

    def test_accepts_interior(self):
        q = ProductQuery(2, 0.25, 0.5)
        assert (q.x, q.y) == (0.25, 0.5)

    def test_rejects_disorder(self):
        with pytest.raises(DomainError):
            ProductQuery(1, 0.7, 0.2)

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            ProductQuery(1, 0.0, 0.5)
        with pytest.raises(DomainError):
            ProductQuery(1, 0.5, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            ProductQuery(1, float("nan"), 0.5)


class TestProductRatio:
    """Squared products of (k^n + y^n)/(k^n + x^n) against closed ratios."""

    def test_doubling_identity(self):
        # n=1 ratio is sin^2(pi y)/sin^2(pi x); at (1/4, 1/2) that is 2.
        res = product_ratio(ProductQuery(1, 0.25, 0.5))
        assert abs(res.value - 2.0) <= 1e-8
        assert abs(res.value - 2.0) <= res.err_estimate

    def test_sixth_to_half(self):
        res = product_ratio(ProductQuery(1, 1.0 / 6.0, 0.5))
        assert abs(res.value - 4.0) <= 1e-8

    def test_order1_sine_identity(self):
        x, y = 0.3, 0.45
        exact = math.sin(math.pi * y) ** 2 / math.sin(math.pi * x) ** 2
        res = product_ratio(ProductQuery(1, x, y))
        assert abs(res.value - exact) <= 1e-10 * exact

    def test_order2_sinh_identity(self):
        exact = (math.sinh(math.pi / 2.0) / math.sinh(math.pi / 4.0)) ** 4
        res = product_ratio(ProductQuery(2, 0.25, 0.5))
        assert abs(res.value - exact) <= 1e-10 * exact
        assert abs(res.value - 49.257334380307505) < 1e-10

    def test_multiplicative_chain(self):
        for n in (1, 3):
            ab = product_ratio(ProductQuery(n, 0.2, 0.4)).value
            bc = product_ratio(ProductQuery(n, 0.4, 0.6)).value
            ac = product_ratio(ProductQuery(n, 0.2, 0.6)).value
            assert abs(ab * bc - ac) <= 1e-8 * abs(ac)

    def test_degenerate_is_exactly_one(self):
        res = product_ratio(ProductQuery(3, 0.4, 0.4))
        assert res.value == 1.0 + 0j
        assert res.err_estimate == 0.0
        assert res.work == 0

    def test_parts_are_consistent(self):
        lhs, rhs = product_parts(ProductQuery(2, 0.3, 0.6),
                                 Tolerance(abs_tol=1e-8, rel_tol=1e-8))
        assert lhs.method is Method.DIRECT_SUM
        assert rhs.method is Method.CLOSED_FORM
        assert abs(lhs.value - rhs.value) <= lhs.err_estimate + rhs.err_estimate

    def test_compose_ratio_fields(self):
        lhs, rhs = product_parts(ProductQuery(1, 0.25, 0.5),
                                 Tolerance(abs_tol=1e-6, rel_tol=1e-6))
        res = compose_ratio(lhs, rhs)
        assert res.value == rhs.value
        assert res.err_estimate >= abs(lhs.value - rhs.value)
        assert res.work == lhs.work + rhs.work

    def test_work_counter_exact(self):
        # 33 series terms (K = 16, the corrected tail meets 1e-10 at once)
        # plus the one factor of the order-1 closed form.  Work counts do
        # not depend on the machine; a bounded, uncorrected tail needed the
        # whole 1e7-term budget here.
        res = product_ratio(ProductQuery(1, 0.25, 0.5))
        assert res.work == 34
        assert res.err_estimate <= DEFAULT_TOLERANCE.target(2.0)

    def test_odd_order_agrees_between_routes(self):
        lhs, rhs = product_parts(ProductQuery(3, 0.35, 0.65),
                                 Tolerance(abs_tol=1e-9, rel_tol=1e-9))
        assert abs(lhs.value - rhs.value) <= lhs.err_estimate + rhs.err_estimate

    def test_out_of_range_is_domain_error(self):
        # sin(pi x)^2 underflows to 0 at x = 1e-170; the ratio ~1e339 is
        # out of range, not a division by zero.
        with pytest.raises(DomainError):
            product_ratio(ProductQuery(1, 1e-170, 0.5))
