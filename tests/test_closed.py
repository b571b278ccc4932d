"""Tests for the closed-form evaluator and its root-kernel table."""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from cotlattice import (
    DomainError,
    KernelSingularError,
    Method,
    ProductQuery,
    Tolerance,
    ToleranceError,
    phi,
    u_closed,
    u_direct,
    unit_circle_parts,
    validate_domain,
)
from cotlattice import closed, zeta_product
from cotlattice.closed import _kernel_loop, _kernel_pass, kernel_rows, kernel_table
from cotlattice.numerics import EPS, ipow
from pairwise import roundings

LOOSE = Tolerance(abs_tol=1e-6, rel_tol=1e-6)


def _rows(table):
    """The rows (a, b, mult, ka, kb) of a table's columns, as Python numbers."""
    return list(zip(*(col.tolist() for col in table)))


def _ray(theta, a, b, mult):
    """A table row (a, b, mult, ka, kb): the argument-error constants are
    1.25 |a| and 1.25 |b| on a snapped axis ray (a or b 0), and add an
    ulp of a and of b and their shift by 1.5 eps of theta elsewhere."""
    exact = a == 0.0 or b == 0.0
    ka = 1.25 * abs(a) + (0.0 if exact else abs(a) + 1.5 * theta * abs(b))
    kb = 1.25 * abs(b) + (0.0 if exact else abs(b) + 1.5 * theta * abs(a))
    return a, b, mult, ka, kb


class TestKernelTable:
    """kernel_table lists the distinct odd-angle rays with multiplicities,
    as read-only columns."""

    @staticmethod
    def _orbit(n, a, b):
        """The roots a ray stands for, as {j: (cos, sin)} over the odd j in
        1..2n-1 of the root angles j pi / n: the ray at theta = atan2(b, a),
        its conjugate at -theta and, for even n, its mirror images at
        +-(pi - theta), with (a, b) reflected to match."""
        j = round(math.atan2(b, a) * n / math.pi)
        images = {j: (a, b), -j: (a, -b)}
        if n % 2 == 0:
            images.update({n - j: (-a, b), j - n: (-a, -b)})
        return {i % (2 * n): ab for i, ab in images.items()}

    def test_angles(self):
        for n in range(1, 65):
            a, b, mult, ka, kb = kernel_table(n)
            # An exact count of kernel terms per call, whatever the machine.
            count = (n + 1) // 2 if n % 2 else (n + 2) // 4
            assert len(a) == len(b) == len(mult) == len(ka) == len(kb) == count
            for k, (a_k, b_k) in enumerate(zip(a.tolist(), b.tolist()), start=1):
                assert abs(math.atan2(b_k, a_k) - (2 * k - 1) * math.pi / n) < 1e-12

    def test_multiplicities_sum_to_order(self):
        for n in range(1, 65):
            table = kernel_table(n)
            assert sum(table[2].tolist()) == n
            assert all(mult == len(self._orbit(n, a, b))
                       for a, b, mult, _, _ in _rows(table))

    def test_unit_modulus(self):
        for a, b, _, _, _ in _rows(kernel_table(7)):
            assert abs(a**2 + b**2 - 1.0) < 4e-16

    def test_axis_values_exact(self):
        (r,) = _rows(kernel_table(1))
        assert r[:3] == (-1.0, 0.0, 1)
        (r,) = _rows(kernel_table(2))
        assert r[:3] == (0.0, 1.0, 2)
        assert _rows(kernel_table(3))[-1][:3] == (-1.0, 0.0, 1)
        assert _rows(kernel_table(6))[1][:3] == (0.0, 1.0, 2)

    def test_argument_error_constants(self):
        for n in range(1, 129):
            rows = _rows(kernel_table(n))
            assert rows == [_ray((2 * k - 1) * math.pi / n, a, b, mult)
                            for k, (a, b, mult, _, _) in enumerate(rows, start=1)]
        assert _rows(kernel_table(1)) == [(-1.0, 0.0, 1, 1.25, 0.0)]
        assert _rows(kernel_table(2)) == [(0.0, 1.0, 2, 0.0, 1.25)]

    def test_conjugate_closure(self):
        # The rays' orbits are all n roots e^(i (2k - 1) pi / n), each once.
        for n in range(1, 65):
            roots = {}
            for a, b, _, _, _ in _rows(kernel_table(n)):
                orbit = self._orbit(n, a, b)
                assert not roots.keys() & orbit.keys()
                roots.update(orbit)
            assert sorted(roots) == list(range(1, 2 * n, 2))
            for j, (a, b) in roots.items():
                angle = (j if j <= n else j - 2 * n) * math.pi / n  # in (-pi, pi]
                assert abs(a - math.cos(angle)) < 1e-15
                assert abs(b - math.sin(angle)) < 1e-15

    def test_cached(self):
        assert kernel_table(5) is kernel_table(5)
        assert not any(col.flags.writeable for col in kernel_table(5))
        assert kernel_rows(5) is kernel_rows(5)
        assert list(kernel_rows(5)) == _rows(kernel_table(5))


class TestKernel:
    """The one kernel term is even in b, bitwise: the rays rho and conj(rho)
    give one term, in the scalar loop, where tan saturates or not."""

    def test_conjugate_rays_bitwise_equal(self):
        rng = random.Random(20251)
        for _ in range(400):
            theta = rng.uniform(0.05, math.pi - 0.05)
            rho = complex(math.cos(theta), math.sin(theta))
            # |Im pi z rho| past 20 saturates tan to +-i.
            mag = rng.choice((rng.uniform(0.03, 1.3), rng.uniform(13.0, 130.0)))
            z_real = rng.choice((-1.0, 1.0)) * mag
            z_cplx = cmath.rect(mag, rng.uniform(-math.pi, math.pi))
            for z in (z_real, z_cplx):
                pz = math.pi * z
                f = _kernel_loop(((rho, 1),), pz, 0.0)
                assert f == _kernel_loop(((rho.conjugate(), 1),), pz, 0.0)
                assert type(f[0]) is type(z)


def _singular_at(rho, pz):
    """The singularity test, spelled out: |tan u| |tan u'| < 1e-12 min(1, |pi z|)^2
    with u = pi z rho, u' = pi conj(z) rho, by cmath."""
    p = abs(cmath.tan(pz * rho)) * abs(cmath.tan(pz.conjugate() * rho))
    return p < 1e-12 * min(1.0, abs(pz)) ** 2


class TestSingularGate:
    """The scalar loop raises KernelSingularError exactly where
    |tan u| |tan u'| < 1e-12 min(1, |pi z|)^2 holds, for real and complex z."""

    def test_raises_exactly_at_threshold(self):
        assert closed._SINGULAR == 1e-12
        outcomes = set()
        for m in (1, 3, 40):
            for b in (0.0, 1e-9):
                rho = complex(-math.sqrt(1.0 - b * b), b)
                for im in (None, 0.0, 1e-9):  # real z, complex z

                    def pz_at(d):
                        # Re u = Re(pz rho) = -(pi m + d): tan u ~ -d, next to a zero
                        x = (math.pi * m + d) / -rho.real
                        return x if im is None else complex(x, im)

                    # tan u ~ d: the test crosses its threshold near d = 1e-6;
                    # bisect to the crossing.
                    lo, hi = 1e-8, 1e-4
                    assert _singular_at(rho, pz_at(lo))
                    assert not _singular_at(rho, pz_at(hi))
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        if _singular_at(rho, pz_at(mid)):
                            lo = mid
                        else:
                            hi = mid
                    for step in range(-12, 13):
                        pz = pz_at(lo * (1.0 + 1e-7 * step))
                        singular = _singular_at(rho, pz)
                        outcomes.add(singular)
                        if singular:
                            with pytest.raises(KernelSingularError):
                                _kernel_loop(((rho, 1),), pz, 1e-12)
                        else:
                            _kernel_loop(((rho, 1),), pz, 1e-12)
        assert outcomes == {True, False}


class TestVectorPass:
    """From _CROSSOVER rays up u_closed evaluates every ray in one numpy
    pass of complex tangents, which matches the scalar loop's values within
    their bars and its singular verdicts exactly."""

    @staticmethod
    def _loop(n, z):
        """u_closed by the scalar loop, whatever the ray count."""
        saved = closed._CROSSOVER
        closed._CROSSOVER = math.inf
        try:
            return u_closed(n, z)
        finally:
            closed._CROSSOVER = saved

    @staticmethod
    def _regime(n, z):
        """half, rescaled or mixed: where the rays' exponential scales
        max(|Re w| b, |Im w| |a|), w = 2 pi z, lie against 30."""
        w = 2.0 * math.pi * z
        a, b, _, _, _ = kernel_table(n)
        big = np.maximum(abs(w.real) * b, abs(w.imag) * np.abs(a)) > 30.0
        return "rescaled" if big.all() else "mixed" if big.any() else "half"

    @staticmethod
    def _points(seed, count):
        rng = random.Random(seed)
        # Every ray's tan saturated, complex and real (even n: every b > 0);
        # mixed real and complex; |2 pi z| < 1, where tan u ~ u (at |z| =
        # 1e-7 z^56 underflows, and |tan u tan u'| ~ 1e-13 is no pole only
        # by the singularity test's min(1, |pi z|)^2 scale).
        pts = [(110, 16 + 16j), (97, -20 + 15j), (114, 200.0), (118, -220.0),
               (95, 8.0), (112, -6.5 + 3.0j), (95, 1e-3), (110, 3e-3j), (57, -2e-4 + 1e-4j),
               (57, 1e-7), (57, 1e-7j)]
        lo = closed._CROSSOVER
        for i in range(count):
            rays = rng.randint(max(1, lo - 6), 3 * lo)  # both sides of the crossover
            n = 2 * rays - 1 if i % 2 else 4 * rays - 2
            top = 280.0 / n  # |z|^n stays a double
            r = 10.0 ** rng.uniform(-min(6.0, top), min(3.0, top))
            phase = rng.uniform(-math.pi, math.pi) if i % 4 > 1 else rng.choice((0.0, math.pi))
            pts.append((n, complex(r * math.cos(phase), r * math.sin(phase))))
            if i < 40:  # 32..512 rays, where pairwise and angle-order sums differ most
                rays = rng.randint(32, 512)
                n = 2 * rays - 1 if i % 2 else 4 * rays - 2
                r = 10.0 ** rng.uniform(-280.0 / n, 280.0 / n)
                pts.append((n, complex(r * math.cos(phase), r * math.sin(phase))))
        return pts

    def test_matches_scalar_loop(self):
        seen = {"half": 0, "rescaled": 0, "mixed": 0, "tiny": 0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning
            for n, z in self._points(1111, 300):
                z = z.real if z.imag == 0.0 else z
                try:
                    ref = self._loop(n, z)
                except DomainError as exc:
                    with pytest.raises(DomainError) as got:
                        u_closed(n, z)
                    assert (type(got.value), str(got.value)) == (type(exc), str(exc))
                    continue
                res = u_closed(n, z)
                assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate, (n, z)
                assert res.work == n
                seen[self._regime(n, z)] += 1
                seen["tiny"] += abs(2.0 * math.pi * z) < 1.0
            with pytest.raises(DomainError):  # subnormal w: the loop's overflow
                u_closed(101, 1e-310)
        assert min(seen.values()) >= 3, seen

    def test_raises_exactly_at_threshold(self):
        # The axis ray theta = pi of an odd order (rho = -1) has u = -pi z,
        # pi z = pi m + d; every other ray has |Im u| far from 0.
        n = 2 * closed._CROSSOVER + 1
        a, b, _, _, _ = kernel_table(n)
        assert b[-1] == 0.0 and len(a) >= closed._CROSSOVER
        rho = a.base

        def exact(z):
            # The rule in numpy's arithmetic, as the pass spells it.
            pz = math.pi * z
            if isinstance(pz, float):
                mod = np.abs(np.tan(pz * rho))
                p = mod * mod
            else:
                mod = np.abs(np.tan(np.multiply.outer((pz, pz.conjugate()), rho)))
                p = mod[0] * mod[1]
            return bool((p < 1e-12 * min(1.0, abs(pz)) ** 2).any())

        outcomes = set()
        for m in (1, 3, 40):
            for im in (0.0, 1e-9):
                def z_at(d):
                    x = math.pi * m + d
                    return x / math.pi if im == 0.0 else complex(x, im) / math.pi

                lo, hi = 1e-8, 1e-4
                assert exact(z_at(lo))
                assert not exact(z_at(hi))
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if exact(z_at(mid)):
                        lo = mid
                    else:
                        hi = mid
                for step in range(-12, 13):
                    z = z_at(lo * (1.0 + 1e-7 * step))
                    singular = exact(z)
                    outcomes.add(singular)
                    if singular:
                        with pytest.raises(KernelSingularError):
                            u_closed(n, z)
                    else:
                        u_closed(n, z)
        assert outcomes == {True, False}

    def test_singular_verdicts_match_loop(self):
        # Next to poles k e^(i (2j + 1) pi / n) on every kind of ray, the
        # axis rays of odd n (real w) and of n = 2 mod 4 among them, on both
        # sides of the rule's reach: the pass raises what the loop raises.
        # The orders follow _CROSSOVER so that every one reaches the pass.
        c = closed._CROSSOVER
        orders = (2 * c - 1, 2 * c + 1, 4 * c - 2, 4 * c + 2, 2 * c + 29, 4 * c + 26, 255, 1024)
        assert min(len(kernel_table(n)[0]) for n in orders) >= c

        def outcome(n, z):
            try:
                return ("value", u_closed(n, z).work)
            except (DomainError, KernelSingularError) as exc:
                return (type(exc).__name__, str(exc))

        rng = random.Random(2121)
        seen = set()
        for _ in range(300):
            n = rng.choice(orders)
            j = rng.choice((rng.randrange(n), (n - 1) // 2, n // 4))  # the axis rays often
            k = rng.randint(1, max(1, min(5, int(10.0 ** (280.0 / n)))))
            d = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, -5.0)
            z = k * (1.0 + d) * cmath.exp(1j * math.pi * (2 * j + 1) / n)
            z = z.real if abs(z.imag) < 1e-12 * k else z
            got = outcome(n, z)
            saved, closed._CROSSOVER = closed._CROSSOVER, math.inf
            try:
                assert outcome(n, z) == got, (n, z)
            finally:
                closed._CROSSOVER = saved
            seen.add(got[0])
        assert seen == {"value", "DomainError", "KernelSingularError"}, seen

    def test_rescaled_singular_ray_matches_loop(self):
        # Next to the pole z = 12 e^(11 pi i / 47) of order 47 the singular
        # ray's halves have |Im u| ~ 18, where tan is all but saturated: the
        # pass raises where the loop does, on both sides of the crossing.
        n = 47
        a, _, mult, _, _ = kernel_table(n)
        rays = list(zip(a.base.tolist(), mult.tolist()))
        pole = 12.0 * cmath.exp(11j * math.pi / n)

        def pz_at(t):
            return math.pi * pole * (1.0 + t)

        def loop_raises(pz):
            try:
                _kernel_loop(rays, pz, closed._SINGULAR)
            except KernelSingularError:
                return True
            return False

        lo, hi = 2.0 ** -50, 2.0 ** -30
        assert loop_raises(pz_at(lo)) and not loop_raises(pz_at(hi))
        for _ in range(40):
            mid = math.sqrt(lo * hi)
            if loop_raises(pz_at(mid)):
                lo = mid
            else:
                hi = mid
        outcomes = set()
        for step in range(-12, 13):
            pz = pz_at(lo * (1.0 + 0.02 * step))
            singular = loop_raises(pz)
            outcomes.add(singular)
            if singular:
                with pytest.raises(KernelSingularError):
                    _kernel_pass(a.base, mult, pz, closed._SINGULAR)
            else:
                _kernel_pass(a.base, mult, pz, closed._SINGULAR)
        assert outcomes == {True, False}

    def test_rounding_count(self):
        # _kernel_pass's docstring: a term meets at most 24 + max(0, ceil(log2(N/128)))
        # roundings in an N-term sum, 26 up to 512 rays; a complex sum's parts fewer.
        def bound(m):
            return 24 + max(0, math.ceil(math.log2(m / 128)))

        for lanes, block in ((8, 128), (4, 64)):
            counts = [roundings(m, lanes, block) for m in range(1, 4097)]
            assert all(c <= bound(m) for m, c in enumerate(counts, 1))
        counts = [roundings(m) for m in range(1, 4097)]
        assert max(counts[:512]) == 26
        assert {m for m, c in enumerate(counts, 1) if c == bound(m)} >= {127, 239, 463, 911}

    def test_conjugate_symmetry_bitwise(self):
        for n in (70, 96, 112, 255, 1024):  # 70: the least even n of the pass
            top = 10.0 ** (280.0 / n)
            for r in (1e-3, 0.3, 0.9, 1.4, 8.0, 40.0):
                if not 1.0 / top < r < top:  # |z|^n stays a double
                    continue
                for phase in (0.3, 1.2, 2.9):
                    z = complex(r * math.cos(phase), r * math.sin(phase))
                    assert u_closed(n, z.conjugate()).value == u_closed(n, z).value.conjugate()


class TestUClosed:
    """u_closed reproduces the classical cotangent reductions."""

    def test_order1_cotangent(self):
        for z in (0.3, 0.71, 1.5, 0.25 + 0.6j, -0.4 + 0.2j):
            exact = math.pi / cmath.tan(math.pi * z)
            res = u_closed(1, z)
            assert abs(res.value - exact) <= 1e-10 * abs(exact) + 1e-13

    def test_order2_hyperbolic(self):
        for z in (0.3, 0.71, 2.5, 0.25 + 0.6j):
            exact = (math.pi / z) / cmath.tanh(math.pi * z)
            res = u_closed(2, z)
            assert abs(res.value - exact) <= 1e-10 * abs(exact) + 1e-13

    def test_orders_3_4_match_reduced_forms(self):
        # U_3 = pi/(3 z^2) [cot(pi z) + (sin(pi z) + sqrt(3) sinh(sqrt(3) pi z))
        #                    / (cosh(sqrt(3) pi z) - cos(pi z))],
        # U_4 = pi/(sqrt(2) z^3) (sin x + sinh x) / (cosh x - cos x),
        # x = sqrt(2) pi z: the ray table collapsed by hand.
        s2, s3 = math.sqrt(2.0), math.sqrt(3.0)
        for z in (0.3, 1.2, -0.8, 0.4 + 0.7j, -1.3 + 0.2j):
            w = math.pi * z
            u3 = math.pi / (3 * z**2) * (
                1.0 / cmath.tan(w)
                + (cmath.sin(w) + s3 * cmath.sinh(s3 * w))
                / (cmath.cosh(s3 * w) - cmath.cos(w)))
            x = s2 * w
            u4 = math.pi / (s2 * z**3) * (
                (cmath.sin(x) + cmath.sinh(x)) / (cmath.cosh(x) - cmath.cos(x)))
            for n, ref in ((3, u3), (4, u4)):
                res = u_closed(n, z)
                assert abs(res.value - ref) <= 1e-12 * abs(ref)

    def test_higher_orders_match_direct(self):
        for n, z in ((5, 0.3), (6, 0.7), (7, 0.45)):
            ref = u_direct(n, z, LOOSE)
            res = u_closed(n, z)
            assert abs(res.value - ref.value) <= ref.err_estimate + res.err_estimate

    def test_work_equals_order(self):
        for n in (1, 2, 3, 4, 5, 11):
            assert u_closed(n, 0.37).work == n

    def test_method_tag(self):
        assert u_closed(3, 0.4).method is Method.CLOSED_FORM

    def test_conjugate_symmetry(self):
        z = 0.31 + 0.45j
        for n in (1, 3, 4, 6):
            assert u_closed(n, z.conjugate()).value == u_closed(n, z).value.conjugate()

    def test_large_real_argument(self):
        # U_2(z) -> pi/z as z grows: tan is saturated, and the bar holds
        # only the value's rounding, without the arguments' scale.
        res = u_closed(2, 1.0e6)
        assert abs(res.value - math.pi / 1.0e6) <= 1e-12 * (math.pi / 1.0e6)

    @pytest.mark.parametrize("z", [5e307 + 3.05e307j, 9.86e307 + 3.05e307j,
                                   1.7e308 + 1.7e308j])
    def test_saturated_argument_past_double_range(self, z):
        # 2 pi z, or pi z itself, has a part past the double range, and so
        # does 2 pi |z| |U_1|; |Im pi z| is far past 20, where cot is -i.
        res = u_closed(1, z)
        assert res.value == -1j * math.pi and res.err_estimate < 1e-14

    def test_large_imaginary_argument(self):
        # cot(pi(0.5 + iy)) -> -i as y -> +inf.
        res = u_closed(1, 0.5 + 40.0j)
        assert abs(res.value - (-1j * math.pi)) < 1e-12

    def test_error_bound_is_honest(self):
        for n, z in ((1, 0.3), (2, 0.71), (3, 0.45), (4, 1.2)):
            exact = u_direct(n, z, Tolerance(abs_tol=4e-7, rel_tol=0.0,
                                             max_terms=50_000_000))
            res = u_closed(n, z)
            assert abs(res.value - exact.value) <= res.err_estimate + exact.err_estimate

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            u_closed(1, 1.0)
        with pytest.raises(DomainError):
            u_closed(3, 2.0)

    def test_near_pole_raises(self):
        with pytest.raises(DomainError):
            u_closed(1, 1.0 + 1e-14)

    def test_origin_raises(self):
        with pytest.raises(DomainError):
            u_closed(2, 0.0)
        with pytest.raises(DomainError):
            u_closed(1, 0.0)

    def test_prefactor_past_double_range(self):
        # n z^(n-1) overflows although z^(n-1) is a double: pi/n is taken
        # first, and the prefactor, subnormal, is charged for its loss.
        n, z = 440, -5.0005
        res = u_closed(n, z)
        ref = u_direct(n, z)
        assert res.value.real > 2.7e-307
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate
        assert abs(res.value - 2.722978970578948e-307) <= res.err_estimate


class TestNearAxisPole:
    """On the axis rays theta = pi (odd n) and theta = pi/2 (n = 2 mod 4)
    tan u tan u' has a double zero at the pole, so the singularity test
    |tan u tan u'| < 1e-12 fires out to ~3e-7/k from it, while
    validate_domain admits points down to ~1e-12/n.  The intended
    behaviour is a value within its bar of the direct sum's."""

    @pytest.mark.xfail(strict=True, raises=KernelSingularError,
                       reason="the kernel's singularity test is a second pole rule")
    @pytest.mark.parametrize("n, z", [(1, -1.000000001), (2, 1.000000001j)])
    def test_matches_direct(self, n, z):
        assert validate_domain(n, z) == z
        ref = u_direct(n, z)
        res = u_closed(n, z)
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate


class TestTinyArgument:
    """Near z = 0 every |tan u tan u'| is ~|pi z|^2; that is not a pole,
    and u_closed must evaluate there."""

    @staticmethod
    def _points(seed):
        rng = random.Random(seed)
        pts = []
        for i in range(24):
            r = 10.0 ** rng.uniform(-9.0, -7.0)
            if i % 2:
                phase = rng.uniform(-math.pi, math.pi)
                pts.append(complex(r * math.cos(phase), r * math.sin(phase)))
            else:
                pts.append(rng.choice((-1.0, 1.0)) * r)
        return pts

    def test_orders_1_2_match_cot_coth(self):
        for z in self._points(11):
            for n, ref in ((1, math.pi / cmath.tan(math.pi * z)),
                           (2, (math.pi / z) / cmath.tanh(math.pi * z))):
                res = u_closed(n, z)
                assert abs(res.value - ref) <= res.err_estimate

    def test_odd_orders_match_lattice_sum(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30
        for z in self._points(12)[:8]:
            zm = mp.mpc(z)
            for n in (3, 5):
                # z^-n plus the k != 0 terms, paired as k, -k.
                ref = zm**-n + mp.nsum(
                    lambda k: 1 / (k**n + zm**n) + 1 / ((-k)**n + zm**n),
                    [1, mp.inf])
                res = u_closed(n, z)
                assert abs(res.value - complex(ref)) <= res.err_estimate

    def test_reported_examples(self):
        assert abs(u_closed(2, 1e-8).value - 1e16) <= 1e16 * 1e-14
        assert abs(u_closed(5, 2e-8).value - 2e-8**-5) <= 2e-8**-5 * 1e-14
        res = phi(3, 1e-30)
        assert abs(res.value - 1e240) <= res.err_estimate

    def test_underflowed_denominator_raises(self):
        # Below |z| ~ 3.5e-309 U_1 ~ 1/z leaves the double range: a
        # domain error, never an inf or a division by 0.
        with pytest.raises(DomainError):
            u_closed(1, 1e-310)

    def test_term_modulus_past_double_range_raises(self):
        # The kernel term's parts are finite, its modulus (~5.9e308) is
        # not: the domain error of |U_n| past the double range, not a
        # bare OverflowError.
        for z in (1.2e-309 + 1.2e-309j, -1.2e-309 + 1.2e-309j, 1e-309j):
            with pytest.raises(DomainError, match="exceeds double range"):
                u_closed(1, z)

    @pytest.mark.parametrize("n, z, message", [
        (1, 5e-324, "|U_1((5e-324+0j))| exceeds double range"),
        (2, 5e-324, "z^1 leaves double range"),
        (3, 5e-324, "z^2 leaves double range"),
        (1, 4e-323, "|U_1((4e-323+0j))| exceeds double range"),
    ])
    def test_subnormal_argument_is_a_range_error(self, n, z, message):
        # |pi z| < 2^-1023: the range checks run before the kernel, which
        # once took these points for poles (KernelSingularError).
        with pytest.raises(DomainError) as exc:
            u_closed(n, z)
        assert type(exc.value) is DomainError and message in str(exc.value)

    def test_n1_below_normal_denominator(self):
        # sin^2(pi z) is subnormal below |z| ~ 5.8e-155; tan(pi z) ~ pi z
        # is not, and U_1 ~ 1/z evaluates down to ~1e-308.
        for z in (1e-160, -1e-200, 1e-300, 1e-160 + 1e-161j):
            res = u_closed(1, z)
            assert abs(res.value - 1.0 / z) <= res.err_estimate


def _unfolded_table(n):
    """kernel_table without the even-order fold: all ceil(n/2) rays with
    0 < theta <= pi, each a conjugate pair (2) but theta = pi (1)."""
    rays = []
    for k in range(1, (n + 1) // 2 + 1):
        num = 2 * k - 1
        theta = num * math.pi / n
        if num == n:
            rays.append(_ray(theta, -1.0, 0.0, 1))
        elif 2 * num == n:
            rays.append(_ray(theta, 0.0, 1.0, 2))
        else:
            rays.append(_ray(theta, math.cos(theta), math.sin(theta), 2))
    return tuple(np.array(col) for col in zip(*rays))


def _unfolded_closed(n, z):
    """(value, bar) of U_n(z) by u_closed's loop and rounding model over
    the unfolded table."""
    zr = z.real if z.imag == 0.0 else z
    pz = math.pi * zr
    a, b, mult, _, _ = _unfolded_table(n)
    rays = list(zip((a + 1j * b).tolist(), mult.tolist()))
    tot, abs_tot, low = _kernel_loop(rays, pz, 0.0)
    pref = math.pi / (n * ipow(zr, n - 1))
    value = complex(pref * tot)
    if value == 0:
        return value, abs(pref) * abs_tot * 4.0 * EPS
    cond = abs_tot / abs(tot) if tot != 0 else 1.0
    err = abs(value) * EPS * (8.0 + 4.0 * cond)
    if low <= closed._FLAT + 4.0 * abs(EPS * pz):
        err += 2.0 * math.pi * EPS * abs(z) * abs(value)
    return value, err


class TestEvenFold:
    """Folding the rays theta and pi - theta of even n moves values only
    within their bars."""

    @staticmethod
    def _points(seed, count):
        rng = random.Random(seed)
        # |2 pi z b| > 30 saturates tan on every ray; |2 pi z| < 1 reaches
        # down to the smallest |z| where U_n ~ z^-n is still a double.
        pts = [(8, 12.3 + 0j), (16, -7.5 + 3.1j), (6, 40.5j),
               (2, 3e-154 + 0j), (2, -2e-152 + 1e-152j), (4, 1e-76j)]
        for i in range(count):
            n = 2 * round(2.0 ** rng.uniform(0.0, 9.0))
            top = 280.0 / n  # |z|^n stays a double
            r = 10.0 ** rng.uniform(-min(12.0, top), min(4.0, top))
            phase = rng.uniform(-math.pi, math.pi) if i % 2 else rng.choice((0.0, math.pi))
            pts.append((n, complex(r * math.cos(phase), r * math.sin(phase))))
        return pts

    def test_u_closed_matches_unfolded_sum(self):
        rescaled = tiny = 0
        for n, z in self._points(8080, 400):
            res = u_closed(n, z)
            ref, ref_err = _unfolded_closed(n, z)
            assert abs(res.value - ref) <= res.err_estimate + ref_err, (n, z)
            assert res.work == n
            rescaled += abs(2.0 * math.pi * z) * kernel_table(n)[1][-1] > 30.0
            tiny += abs(z) < 1e-75
        assert rescaled >= 10 and tiny >= 3

    def test_product_matches_unfolded_product(self, monkeypatch):
        rng = random.Random(8081)
        queries = []
        for n in (2, 4, 6, 8, 10, 16, 30, 64, 128, 1024):
            # The ratio grows like (y/x)^(2n): keep it a double.
            x = rng.uniform(0.01, 0.49)
            y = x * (1.0 + rng.uniform(0.0, min(1.0, 20.0 / n)))
            queries.append(ProductQuery(n, x, y))
        # product_ratio reports the closed side of product_parts.
        folded = [zeta_product.product_parts(q)[1] for q in queries]
        monkeypatch.setattr(zeta_product, "kernel_rows",
                            lambda n: tuple(_rows(_unfolded_table(n))))
        for q, res in zip(queries, folded):
            ref = zeta_product._rhs_closed(q.n, q.x, q.y)
            assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate, q


class TestUnitCircleParts:
    """unit_circle_parts matches the complex evaluation on the circle."""

    def test_matches_complex_value(self):
        for n, theta in ((1, math.pi / 5), (2, math.pi / 7), (3, 0.9)):
            z = complex(math.cos(theta), math.sin(theta))
            re, im = unit_circle_parts(n, theta)
            ref = u_closed(n, z).value
            assert abs(re - ref.real) < 1e-9
            assert abs(im - ref.imag) < 1e-9

    @pytest.mark.parametrize("delta", [1e-10, 1e-8, 1e-4])
    def test_near_root_angle_meets_target(self, delta):
        # theta = pi + delta at n = 3 sits 3 delta from the pole w = z^3 = -1,
        # which validate_domain admits.  The parts should meet the target
        # against 40-digit mpmath, or raise a ToleranceError.
        mp = pytest.importorskip("mpmath").mp
        theta = math.pi + delta
        try:
            re, im = unit_circle_parts(3, theta)
        except ToleranceError:
            return
        with mp.workdps(40):
            w = mp.expj(3 * mp.mpf(theta))
            # k = 0, the pair k = +-1 next to the pole, and the pairs k >= 2
            ref = 1 / w + 2 * w / (w ** 2 - 1) + mp.nsum(
                lambda k: 2 * w / (w ** 2 - k ** 6), [2, mp.inf])
        target = Tolerance().target(max(abs(re), abs(im)))
        assert abs(re - float(ref.real)) <= target and abs(im - float(ref.imag)) <= target

    def test_root_angle_raises(self):
        # n theta = pi puts z^n at -1, a lattice pole.
        with pytest.raises(DomainError):
            unit_circle_parts(1, math.pi)
        with pytest.raises(DomainError):
            unit_circle_parts(3, math.pi / 3)
