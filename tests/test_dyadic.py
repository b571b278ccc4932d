"""Tests for the dyadic route phi_m = U_(2^m): one level of U_2 base calls."""

import cmath
import math

import pytest

from cotlattice import dyadic
from cotlattice import (
    DomainError,
    Method,
    RecursionPoleError,
    phi,
    u_closed,
    u_direct,
    validate_domain,
)


class TestPhiValues:
    """phi agrees with the closed form at every supported level."""

    def test_base_level_is_u2(self):
        for z in (0.3, 1.2, 0.4 + 0.7j):
            res = phi(1, z)
            ref = u_closed(2, z)
            assert (res.value, res.err_estimate, res.work) == (ref.value, ref.err_estimate, ref.work)
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

    def test_real_argument_gives_real_value(self):
        # Conjugate leaves pair up: twice the real part, with a +0.0 imaginary part.
        for m in (2, 3, 6):
            for z in (0.7, -1.3):
                value = phi(m, z).value
                assert value.imag == 0.0 and math.copysign(1.0, value.imag) == 1.0

    def test_work_counts_base_calls(self, monkeypatch):
        # Every leaf is one u_closed(2, .) call, made through dyadic's own
        # name; work is 2 per call, and real z shares the conjugate leaves.
        orders = []

        def counted(n, z, tol):
            orders.append(n)
            return u_closed(n, z, tol)

        monkeypatch.setattr(dyadic, "u_closed", counted)
        for m in range(1, 7):
            for z, leaves in ((0.37, max(1, 2 ** (m - 2))), (0.37 + 0.2j, 2 ** (m - 1))):
                orders.clear()
                res = phi(m, z)
                assert orders == [2] * leaves, (m, z)
                assert res.work == 2 * len(orders)

    def test_divides_twice_by_the_power(self):
        # |U_512| ~ 1.5e-305 here: dividing once by z^510 (times c = 256)
        # would leave the double range, dividing twice by z^255 does not.
        z = 2.704374663747077 - 2.9472704706966812j
        res = phi(9, z)
        ref = u_closed(512, z)
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate


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

    def test_value_past_double_range(self):
        # U_512(0.25) ~ 2^1024: the sum is a double, its quotient by z^255 twice is not.
        with pytest.raises(DomainError, match=r"exceeds double range at recursion level m=9"):
            phi(9, 0.25)

    def test_max_level_supported(self):
        res = phi(10, 0.9)
        ref = u_closed(1024, 0.9)
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate

    def test_recursion_pole_is_domain_error(self):
        assert issubclass(RecursionPoleError, DomainError)

    def test_rotated_argument_near_pole_raises(self):
        # z = e^(i pi/4) (1 + 4e-13) is legal and closed evaluates it, but
        # the rotated argument i (1 + 4e-13) of phi_1 = U_2 is within the
        # pole test's reach of the pole i: the recursion rejects it.
        z = complex(0.70710678118683035, 0.70710678118683024)
        assert validate_domain(4, z) == z
        assert math.isfinite(abs(u_closed(4, z).value))
        with pytest.raises(RecursionPoleError) as exc:
            phi(2, z)
        assert str(exc.value).startswith(
            "recursion: rotated argument at level m=1 hits a pole of U_2 (domain: U_2 at z=")

    @pytest.mark.xfail(strict=True, raises=RecursionPoleError,
                       reason="the kernel's singularity test is a second pole rule")
    def test_rotated_argument_near_axis_pole_evaluates(self):
        # The child i (1 + 1e-9) passes validate_domain(2, .) but fails in
        # the closed kernel, whose test reaches ~4e-7 from the pole i.
        z = cmath.exp(1j * math.pi / 4) * (1.0 + 1e-9)
        assert validate_domain(2, 1.000000001j) == 1.000000001j
        ref = u_direct(4, z)
        res = phi(2, z)
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate
