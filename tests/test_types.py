"""Tests for the shared result types, domain checks, and numeric helpers."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from cotlattice import (
    DEFAULT_TOLERANCE,
    DomainError,
    EvalResult,
    Method,
    ProductQuery,
    Tolerance,
    phi,
    product_ratio,
    u_closed,
    u_direct,
    u_theta,
    validate_domain,
)
from cotlattice.numerics import Kahan, ipow, zeta_tail
from cotlattice.types import power_in_range, require_finite_scalar, require_order

ZETA2 = math.pi**2 / 6.0


class TestTolerance:
    """Tolerance.target mixes absolute and relative floors."""

    def test_target_absolute_floor(self):
        tol = Tolerance(abs_tol=1e-8, rel_tol=1e-10)
        assert tol.target(0.0) == 1e-8
        assert tol.target(1.0) == 1e-8

    def test_target_relative_dominates_large_scale(self):
        tol = Tolerance(abs_tol=1e-8, rel_tol=1e-10)
        assert abs(tol.target(1e6) - 1e-4) < 1e-19

    def test_defaults(self):
        assert DEFAULT_TOLERANCE.abs_tol == 1e-10
        assert DEFAULT_TOLERANCE.rel_tol == 1e-10
        assert DEFAULT_TOLERANCE.max_terms == 10_000_000
        assert DEFAULT_TOLERANCE.max_nodes == 100_000

    def test_rejects_nonpositive_pair(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=0.0, rel_tol=0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=-1e-10, rel_tol=1e-10)

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=1e-10, rel_tol=1e-10, max_terms=0)


class TestEvalResult:
    """EvalResult rejects non-finite values and negative error bars."""

    def test_accepts_finite(self):
        r = EvalResult(value=1.5 + 0j, err_estimate=1e-12,
                       method=Method.CLOSED_FORM, work=3)
        assert r.value == 1.5 + 0j

    def test_rejects_nan_value(self):
        with pytest.raises(ValueError):
            EvalResult(value=complex(float("nan"), 0.0), err_estimate=0.0,
                       method=Method.CLOSED_FORM, work=1)

    def test_rejects_negative_err(self):
        with pytest.raises(ValueError):
            EvalResult(value=1 + 0j, err_estimate=-1e-30,
                       method=Method.CLOSED_FORM, work=1)

    def test_zero_work_allowed(self):
        r = EvalResult(value=1 + 0j, err_estimate=0.0,
                       method=Method.CLOSED_FORM, work=0)
        assert r.work == 0


class TestRequire:
    """Argument guards reject the right shapes."""

    def test_order_rejects_zero(self):
        with pytest.raises(ValueError):
            require_order(0)

    def test_order_rejects_bool(self):
        with pytest.raises(TypeError):
            require_order(True)

    def test_order_rejects_float(self):
        with pytest.raises(TypeError):
            require_order(2.0)

    def test_order_accepts(self):
        assert require_order(7) == 7

    def test_scalar_rejects_inf(self):
        with pytest.raises(ValueError):
            require_finite_scalar(complex(float("inf"), 0.0))

    def test_scalar_coerces(self):
        assert require_finite_scalar(2) == 2 + 0j


def is_pole(n, z):
    """Whether validate_domain rejects (n, z) as a pole."""
    try:
        validate_domain(n, z)
    except DomainError as exc:
        assert str(exc).endswith(": pole"), exc
        return True
    return False


class TestValidateDomain:
    """validate_domain returns z, or raises DomainError at excluded
    points and poles."""

    def test_origin_even_excluded(self):
        with pytest.raises(DomainError, match="z=0 excluded for even n"):
            validate_domain(2, 0j)

    def test_origin_odd_pole(self):
        assert is_pole(3, 0j)

    def test_odd_integer_pole(self):
        # k = -z cancels k^n + z^n for odd n at every nonzero integer z.
        assert is_pole(1, 2 + 0j)
        assert is_pole(3, -5 + 0j)

    def test_odd_half_integer_ok(self):
        assert validate_domain(1, 0.5) == 0.5 + 0j
        assert type(validate_domain(5, 7.5)) is complex

    def test_even_real_ok(self):
        assert validate_domain(2, 3 + 0j) == 3 + 0j
        assert validate_domain(4, 1000.25 + 0j) == 1000.25 + 0j

    def test_even_imaginary_pole(self):
        # z = i: k = 1 gives 1 + i^2 = 0.
        with pytest.raises(DomainError, match=r"domain: U_2 at z=1j: pole"):
            validate_domain(2, 1j)

    def test_eighth_root_pole(self):
        z = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        assert is_pole(4, z)

    def test_generic_complex_ok(self):
        assert validate_domain(4, 0.5 + 0.5j) == 0.5 + 0.5j

    def test_band_scan_matches_full_window(self):
        # Reference: every integer k != 0 with |k| <= |z| + 2, same test.
        # Above |z| = 1e4 only the band |z| - 2 <= |k| <= |z| + 2: near
        # |z| = 1e15 integers farther out pass the relative test too, and
        # the band is what defines a pole there.
        def brute(n, z):
            az = abs(z)
            s = max(1.0, az)
            zsn = ipow(z / s, n)
            lo, hi = (1 if az < 1e4 else math.ceil(az - 2.0)), int(az + 2.0)
            for k in (*range(-hi, -lo + 1), *range(lo, hi + 1)):
                ksn = ipow(k / s, n)
                if k != 0 and abs(ksn + zsn) < 1e-12 * max(abs(ksn), abs(zsn)):
                    return True
            return False

        rng = random.Random(4242)
        points = []
        for _ in range(150):
            n = rng.randint(1, 12)
            k = rng.randint(1, 64)
            j = rng.randrange(n)
            pole = k * complex(math.cos(math.pi * (2 * j + 1) / n),
                               math.sin(math.pi * (2 * j + 1) / n))
            points.append((n, pole))
            points.append((n, pole + 1e-13))
            points.append((n, pole + 1e-13j))
            points.append((n, complex(rng.uniform(-70.0, 70.0), rng.uniform(-70.0, 70.0))))
        # |z| at and next to |k| up to n = 1024, on a pole ray and off it,
        # across the 1e-10 relative gap outside which k cannot be a pole.
        for _ in range(60):
            n = round(2.0 ** rng.uniform(0.0, 10.0))
            k = rng.randint(1, 64)
            j = rng.randrange(n)
            for phase in (math.pi * (2 * j + 1) / n, rng.uniform(-math.pi, math.pi)):
                for rel in (0.0, 1e-16, 1e-13, 1e-12 / n, 1e-11, 1e-9):
                    for sign in (1.0, -1.0):
                        r = k * (1.0 + sign * rel)
                        points.append((n, complex(r * math.cos(phase), r * math.sin(phase))))
        # Large |z|, where up to five integers lie within 1e-10 of |z|:
        # halfway points and their neighbours, on pole rays.
        for _ in range(40):
            n = round(2.0 ** rng.uniform(0.0, 10.0))
            k = rng.choice((10**6, 5 * 10**9 + 1, 10**12, 845530376712649))
            j = rng.randrange(n)
            phase = math.pi * (2 * j + 1) / n
            for r in (k, k + 0.25, k + 0.5, k + 1.0 - 2.0**-5):
                points.append((n, complex(r * math.cos(phase), r * math.sin(phase))))
        points.append((939, 347264519225798.2 - 770927345234757j))
        # unit_circle_parts' points: z = e^(i theta) at and next to the roots
        # of z^n = -1 and, for odd n, of z^n = +1 (the pole of k = -1)
        for n in range(1, 10):
            for j in range(2 * n):
                for d in (0.0, 1e-15, 5e-13 / n, 1e-12 / n, 2e-12 / n, 1e-11):
                    points.append((n, cmath.rect(1.0, math.pi * j / n + d)))
        verdicts = set()
        for n, z in points:
            pole = is_pole(n, z)
            assert pole is brute(n, z), (n, z)
            verdicts.add(pole)
        assert verdicts == {True, False}


class TestPowerInRange:
    """power_in_range returns (ipow(z, k), rel) or raises DomainError."""

    KS = (0, 1, 2, 3, 7, 64, 255, 1023, 1024)

    def test_returns_ipow(self):
        p, _ = power_in_range(0.3, 7)
        assert p == ipow(0.3, 7)
        assert type(p) is float
        assert power_in_range(0.5 + 0.25j, 9)[0] == ipow(0.5 + 0.25j, 9)
        # z^0 and z^1 take no rounding product
        assert power_in_range(0.3, 0)[1] == power_in_range(0.3 + 1j, 1)[1] == 0.0

    @staticmethod
    def _points(seed, k, count, complex_z):
        """Seeded z with |z^k| in [2^-1000, 2^1000], both signs and phases."""
        rng = random.Random(seed)
        reach = 1000.0 / max(k, 1)
        for _ in range(count):
            r = 2.0 ** rng.uniform(-min(reach, 50.0), min(reach, 50.0))
            if complex_z:
                t = rng.uniform(-math.pi, math.pi)
                yield complex(r * math.cos(t), r * math.sin(t))
            else:
                yield rng.choice((-r, r))

    def test_rel_bounds_real_powers(self):
        # Exact z^k by rational arithmetic.
        for k in self.KS:
            for z in self._points(k, k, 40, complex_z=False):
                p, rel = power_in_range(z, k)
                exact = Fraction(z) ** k
                assert abs(Fraction(p) - exact) <= Fraction(rel) * abs(exact), (z, k)

    def test_rel_bounds_complex_powers(self):
        mp = pytest.importorskip("mpmath").mp
        for k in self.KS:
            for z in self._points(k + 1, k, 40, complex_z=True):
                p, rel = power_in_range(z, k)
                with mp.workdps(50):
                    exact = mp.mpc(z) ** k
                    assert abs(mp.mpc(p) - exact) <= rel * abs(exact), (z, k)

    def test_rel_covers_subnormal_powers(self):
        # Below 2^-1022 a product rounds to a fixed spacing, up to 4 u of
        # |z^k| at the bottom of the range.
        rng = random.Random(7)
        for k in (2, 3, 7, 64):
            for _ in range(40):
                z = rng.choice((-1.0, 1.0)) * 2.0 ** ((rng.uniform(1022.1, 1023.9)) / -k)
                p, rel = power_in_range(z, k)
                assert abs(p) < 2.0 ** -1022
                exact = Fraction(z) ** k
                assert abs(Fraction(p) - exact) <= Fraction(rel) * abs(exact), (z, k)

    def test_reciprocal_decides_at_the_bottom(self):
        # 2^-1023 is subnormal but its reciprocal is a double; 2^-1024's is not.
        assert power_in_range(0.5, 1023)[0] == 2.0 ** -1023
        with pytest.raises(DomainError, match=r"z\^1024 leaves double range"):
            power_in_range(0.5, 1024)

    def test_rejects_unusable_powers(self):
        # zero, a reciprocal past the range, overflow, non-finite parts
        for z, k in ((0.25, 1024), (1e-3, 103), (2.0, 1024), (1e308 + 1e308j, 2)):
            with pytest.raises(DomainError, match=rf"z\^{k} leaves double range"):
                power_in_range(z, k)


@pytest.mark.parametrize("call", [
    # z^n subnormal: 1/z^n, the k = 0 term, overflows
    lambda: u_direct(512, 0.25),
    lambda: u_direct(64, 1.0723265072253539e-05),
    # U_(2^m)(z) itself overflows
    lambda: phi(9, 0.25),
    lambda: phi(8, 0.05),
    # one closed-form factor overflows
    lambda: product_ratio(ProductQuery(8, 6.422082031909381e-142, 0.01410156631713621)),
    # a power z^k the route divides by leaves the double range
    lambda: u_closed(64, 1.0723265072253539e-05),
    lambda: phi(2, 1e-200),
    lambda: u_theta(1, 1e-200),
    lambda: u_direct(2, 1e308 + 1e308j),
])
def test_out_of_range_value_is_domain_error(call):
    """A value past the double range is a DomainError, never a bare
    ValueError from EvalResult or an OverflowError."""
    with pytest.raises(DomainError, match="double range"):
        call()


class TestIpow:
    """ipow matches ** and keeps conjugate symmetry exactly."""

    def test_matches_float_pow(self):
        for b in (0.3, 1.7, 2.0):
            for e in (0, 1, 2, 5, 16, 31):
                assert abs(ipow(b, e) - b**e) <= 1e-13 * abs(b**e)

    def test_conjugate_symmetry(self):
        z = 0.37 + 0.89j
        for e in (2, 3, 7, 12):
            assert ipow(z.conjugate(), e) == ipow(z, e).conjugate()

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            ipow(2.0, -1)


class TestKahan:
    """Compensated accumulation keeps sub-ulp contributions."""

    def test_small_terms_survive(self):
        acc = Kahan(1.0 + 0j)
        for _ in range(10_000):
            acc.add(1e-16 + 0j)
        assert abs(acc.total.real - (1.0 + 1e-12)) < 1e-15

    def test_plain_sum(self):
        acc = Kahan()
        for k in range(1, 101):
            acc.add(complex(1.0 / k, 0.0))
        expected = sum(1.0 / k for k in range(1, 101))
        assert abs(acc.total.real - expected) < 1e-13


class TestZetaTail:
    """Tail estimates are accurate and their bounds are honest."""

    def test_tail_s2_matches_zeta2(self):
        cutoff = 10
        partial = sum(1.0 / k**2 for k in range(1, cutoff + 1))
        est, rem = zeta_tail(2.0, cutoff)
        true_tail = ZETA2 - partial
        assert abs(est - true_tail) <= rem
        assert rem < 2e-9

    def test_tail_s4(self):
        cutoff = 8
        zeta4 = math.pi**4 / 90.0
        partial = sum(1.0 / k**4 for k in range(1, cutoff + 1))
        est, rem = zeta_tail(4.0, cutoff)
        assert abs(est - (zeta4 - partial)) <= rem

    def test_rejects_s_at_most_one(self):
        with pytest.raises(ValueError):
            zeta_tail(1.0, 10)
