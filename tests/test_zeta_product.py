"""Tests for the zeta extraction and the squared product ratio."""

import math

import pytest

from cotlattice import (
    DEFAULT_TOLERANCE,
    DomainError,
    NonConvergentError,
    Method,
    ProductQuery,
    Tolerance,
    ZetaExtraction,
    compose_ratio,
    product_parts,
    product_ratio,
    zeta_even,
    zeta_limit_diagnostic,
)

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

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            zeta_even(0)


class TestZetaLimitDiagnostic:
    """The literal-limit route is honest about its cancellation."""

    def test_small_index_accurate(self):
        diag = zeta_limit_diagnostic(1)
        assert abs(diag.extrapolated - ZETA2) < 1e-6
        assert abs(diag.extrapolated - ZETA2) <= diag.err_estimate

    def test_index_two(self):
        diag = zeta_limit_diagnostic(2)
        assert abs(diag.extrapolated - ZETA4) <= diag.err_estimate

    def test_large_index_error_bar_dominates(self):
        # At 2n = 16 the subtraction loses ~16 digits near z = 2^-j; the
        # route must report that, not hide it.
        diag = zeta_limit_diagnostic(8)
        true = 1.0000152822594086
        assert abs(diag.extrapolated - true) <= diag.err_estimate
        assert diag.err_estimate > 1.0

    def test_samples_recorded_decreasing(self):
        diag = zeta_limit_diagnostic(1)
        zs = [z for z, _ in diag.samples]
        assert all(a > b for a, b in zip(zs, zs[1:]))
        assert isinstance(diag, ZetaExtraction)


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
