"""Tests for the dyadic halving recursion phi_m = U_(2^m)."""

import cmath
import math

import pytest

from cotlattice import (
    DomainError,
    Method,
    RecursionPoleError,
    phi,
    u_closed,
)


class TestPhiValues:
    """phi agrees with the closed form at every supported level."""

    def test_base_level_is_u2(self):
        for z in (0.3, 1.2, 0.4 + 0.7j):
            res = phi(1, z)
            ref = u_closed(2, z)
            assert res.value == ref.value
            assert res.method is Method.DYADIC_RECURSION

    def test_level2_matches_u4(self):
        for z in (0.3, 0.7, 1.2, 3.5, 0.4 + 0.7j):
            res = phi(2, z)
            ref = u_closed(4, z)
            assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate

    def test_level3_matches_u8(self):
        for z in (0.45, 1.1, 0.3 + 0.2j):
            res = phi(3, z)
            ref = u_closed(8, z)
            assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate

    def test_real_argument_small_imaginary_residue(self):
        for m in (2, 3):
            res = phi(m, 0.7)
            assert abs(res.value.imag) <= 1e-10 * max(1.0, abs(res.value))

    def test_work_counts_base_evaluations(self):
        # Each level doubles the number of phi_1 = U_2 base calls.
        for m in (1, 2, 3, 4):
            assert phi(m, 0.37).work == 2**m


class TestPhiDomain:
    """phi rejects the same points the series itself excludes."""

    def test_origin_excluded(self):
        with pytest.raises(DomainError):
            phi(2, 0.0)

    def test_pole_rejected(self):
        z = cmath.exp(1j * math.pi / 4)  # z^4 = -1, a pole of U_4
        with pytest.raises(DomainError):
            phi(2, z)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            phi(0, 0.5)

    def test_level_cap(self):
        with pytest.raises(ValueError):
            phi(11, 0.5)

    def test_max_level_supported(self):
        res = phi(10, 0.9)
        ref = u_closed(1024, 0.9)
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate

    def test_recursion_pole_is_domain_error(self):
        assert issubclass(RecursionPoleError, DomainError)
