"""Tests for direct summation: the corrected tail, the cutoff rule, u_direct."""

import cmath
import math
import operator
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from cotlattice import DomainError, NonConvergentError, Method, Tolerance, u_closed, u_direct
from cotlattice.errors import InvalidCutoffError
from cotlattice import numerics
from cotlattice.numerics import series_tail
from pairwise import pairwise

LOOSE = Tolerance(abs_tol=1e-6, rel_tol=1e-6)


def brute_sum(n, z, cutoff):
    """Reference partial sum over |k| <= cutoff with exact accumulation."""
    k = np.arange(-cutoff, cutoff + 1, dtype=float)
    terms = 1.0 / (k**n + complex(z) ** n)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def geometric(first, step):
    c = first
    while True:
        yield c
        c *= step


def fsum_c(terms):
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


class TestTailBound:
    """series_tail sums expanded tails within its certified bound."""

    def test_majorizes_even(self):
        # sum_{k>K} 2/(k^2 + w), complex w, against the coth closed form
        # of the whole series minus an exact partial sum (p = 2).
        w = 0.3 + 0.2j
        sw = cmath.sqrt(w)
        whole = math.pi / sw / cmath.tanh(math.pi * sw)
        for cutoff in (16, 32, 128):
            partial = fsum_c([1.0 / w] + [2.0 / (k * k + w) for k in range(1, cutoff + 1)])
            est, bound = series_tail(geometric(2.0, -w), 2, cutoff, 2.0, abs(w) ** 0.5)
            # the reference itself is good to a few ulps of |whole|
            assert abs(est - (whole - partial)) <= bound + 1e-14

    def test_majorizes_odd(self):
        # sum_{k>K} 2w/(w^2 - k^6) (n = 3 pairs, p = 6), complex
        # coefficients, against brute force to 20000 (remainder < 1e-21).
        w = (0.4 + 0.3j) ** 3
        for cutoff in (16, 64):
            truth = fsum_c([2.0 * w / (w * w - float(k) ** 6)
                            for k in range(cutoff + 1, 20_001)])
            est, bound = series_tail(geometric(-2.0 * w, w * w), 6, cutoff,
                                     2.0 * abs(w), abs(w) ** (1 / 3))
            assert abs(est - truth) <= bound + 1e-21

    def test_brute_force_p4(self):
        # sum_{k>K} 2/(k^4 + w) with |w| near the limit q = 1/2.
        for w in (25_000.0 + 15_000.0j, -30_000.0):
            cutoff = 16
            truth = fsum_c([2.0 / (float(k) ** 4 + w) for k in range(cutoff + 1, 200_001)])
            est, bound = series_tail(geometric(2.0, -w), 4, cutoff, 2.0, abs(w) ** 0.25)
            assert abs(est - truth) <= bound + 1e-15
            assert bound < 1e-5 * abs(truth)

    def test_decreases_with_cutoff(self):
        w = 1.5 ** 2
        bounds = [series_tail(geometric(2.0, -w), 2, k, 2.0, 1.5)[1] for k in (16, 32, 64, 128)]
        assert bounds == sorted(bounds, reverse=True)
        assert bounds[-1] < bounds[0] / 4

    def test_rejects_cutoff_inside_disc(self):
        # (radius / K)^p > 1/2: the expansion's majorant does not hold.
        with pytest.raises(InvalidCutoffError):
            series_tail(geometric(2.0, -100.0), 2, 8, 2.0, 10.0)


class TestPlanTruncation:
    """u_direct stops at the first doubling whose tail bound meets tolerance."""

    def test_meets_target(self):
        tol = Tolerance(abs_tol=1e-13, rel_tol=0.0)
        w = 0.5 ** 2
        res = u_direct(2, 0.5, tol)
        k = (res.work - 1) // 2
        assert series_tail(geometric(2.0, -w), 2, k, 2.0, 0.5)[1] <= 1e-13
        assert k == 16 or series_tail(geometric(2.0, -w), 2, k // 2, 2.0, 0.5)[1] > 1e-13

    def test_budget_exhaustion_raises(self):
        # The start K0 = 16 fits the budget, a doubling beyond 200 terms does not.
        tight = Tolerance(abs_tol=1e-300, rel_tol=0.0, max_terms=200)
        with pytest.raises(NonConvergentError):
            u_direct(1, 0.25, tight)


class TestUDirect:
    """u_direct returns certified values matching reference sums."""

    def test_even_matches_coth(self):
        z = 0.7
        exact = (math.pi / z) / math.tanh(math.pi * z)
        res = u_direct(2, z, LOOSE)
        assert abs(res.value - exact) <= res.err_estimate
        assert res.err_estimate <= LOOSE.target(abs(res.value))
        assert res.method is Method.DIRECT_SUM

    def test_odd_matches_brute_force(self):
        z = 0.4
        reference = brute_sum(3, z, 20_000)
        res = u_direct(3, z, LOOSE)
        assert abs(res.value - reference) <= res.err_estimate + 1e-12

    def test_n1_quarter_matches_cot(self):
        # U_1(1/4) = pi cot(pi/4) = pi.
        res = u_direct(1, 0.25, Tolerance(abs_tol=1e-5, rel_tol=0.0))
        assert abs(res.value - math.pi) <= res.err_estimate

    def test_complex_point(self):
        z = 0.5 + 0.5j
        reference = brute_sum(4, z, 5_000)
        res = u_direct(4, z, LOOSE)
        assert abs(res.value - reference) <= res.err_estimate + 1e-12

    def test_large_argument_even(self):
        res = u_direct(2, 100.0, Tolerance(abs_tol=1e-4, rel_tol=0.0))
        assert abs(res.value - math.pi / 100.0) <= 2e-4

    def test_work_counts_terms(self):
        res = u_direct(2, 0.5, LOOSE)
        assert res.work % 2 == 1
        assert res.work >= 33

    def test_work_counter_exact(self):
        # 2K + 1 explicit terms at the starting K = 16.  Work counts do not
        # depend on the machine; a bounded, uncorrected tail needed
        # ~1.7e7 terms for this target.
        tol = Tolerance(abs_tol=2.5e-7, rel_tol=0.0, max_terms=10**8)
        assert u_direct(2, 0.3 + 0.2j, tol).work == 33

    def test_top_of_double_range(self):
        # |z^195| ~ 8.7e307: 38^195 + |w| overflows (its term once came out
        # -0, and inf * 0 made the bar NaN) and 39^195 overflows, while
        # those terms still count at U ~ -8.3e-307.  At n = 118 the terms
        # past k^118 ~ 1.8e308 add up to 17 times the bar.  At z^195 =
        # -1e308 the tail's c_1 = -2 z^195 overflows (its bound came out
        # NaN), and at |z^196| = 1.7e308 with a complex z so does 1/z^196
        # (it came out 0).
        for n, z in ((195, -37.947359624453796),
                     (118, -214.78674425210454 - 257.77142323720113j),
                     (195, -(1e308) ** (1 / 195)),
                     (196, cmath.rect(1.7e308 ** (1 / 196), 0.5 / 196))):
            res = u_direct(n, z)
            ref = u_closed(n, z)
            assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate

    def test_origin_even_excluded(self):
        with pytest.raises(DomainError):
            u_direct(2, 0.0)

    def test_odd_integer_pole(self):
        with pytest.raises(DomainError):
            u_direct(1, 3.0)

    def test_cutoff_past_double_range_raises(self):
        # |z| >= 2^1023: K0 = 2 ceil(|z|) is an int no double holds, which the
        # budget message once formatted through float (a bare OverflowError).
        with pytest.raises(NonConvergentError,
                           match=r"starting cutoff K=2\.06e\+308 already exceeds max_terms"):
            u_direct(1, 9.86e307 + 3.05e307j)
        with pytest.raises(NonConvergentError,
                           match=r"starting cutoff K=2\.83e\+307 already exceeds max_terms"):
            u_direct(1, 1e307 + 1e307j)

    def test_tight_budget_raises(self):
        # Below the 2 K0 + 1 = 33 terms of the starting cutoff.
        tight = Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_terms=20)
        with pytest.raises(NonConvergentError):
            u_direct(1, 0.25, tight)


def per_order_tail(coeffs, p, cutoff, scale, radius):
    """series_tail's sum with one zeta_tail call per order."""
    log_k = math.log(cutoff)
    log_q = p * (math.log(radius) - log_k)
    est, bound, mag, j = 0j, 0.0, 0.0, 0
    for c in coeffs:
        if j and not cmath.isfinite(c):
            break
        j += 1
        t, rem = numerics.zeta_tail(float(p * j), cutoff)
        est += c * t
        mag += abs(c) * t
        bound += abs(c) * rem
        if j * log_q <= math.log(numerics.EPS):
            break
    bound += 2.0 * math.exp(math.log(scale) + (1 - p) * log_k + j * log_q) / (p * (j + 1) - 1)
    return est, bound + (3 + j) * numerics.EPS * mag, j


class TestCaches:
    """The k^p and (+-k)^p tables and the per-(p, cutoff) zeta-tail tables are
    read-only, bounded and equal to a fresh computation."""

    def test_tables_are_read_only(self):
        table = numerics.powers(3, 1, 16)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 2.0
        assert table.tolist() == [float(k) ** 3 for k in range(1, 17)]
        assert numerics.powers(3, 1, 16) is table

    def test_fixed_sizes(self):
        assert numerics._power_table.cache_info().maxsize == numerics._POWER_TABLES
        assert numerics._signed_table.cache_info().maxsize == numerics._SIGNED_TABLES
        assert numerics._zeta_table.cache_info().maxsize == numerics._ZETA_TABLES

    def test_long_ranges_are_not_kept(self):
        before = numerics._power_table.cache_info().currsize
        hi = numerics._TABLE_LEN + 1
        first = numerics.powers(2, 1, hi)
        assert numerics.powers(2, 1, hi) is not first
        assert numerics._power_table.cache_info().currsize == before
        assert first.tolist() == [float(k) ** 2 for k in range(1, hi + 1)]

    def test_signed_rows(self):
        for p in (1, 2, 3, 4):
            d, rows = numerics.signed_powers(p, 5, 20)
            assert d is numerics.powers(p, 5, 20)
            signs = (1, -1) if p % 2 else (1,)
            assert rows.tolist() == [[complex(s * float(k) ** p) for k in range(5, 21)]
                                     for s in signs]
            assert rows.flags.c_contiguous and not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 2.0
            assert numerics.signed_powers(p, 5, 20)[1] is rows
        hi = numerics._TABLE_LEN + 1
        assert numerics.signed_powers(2, 1, hi)[1] is not numerics.signed_powers(2, 1, hi)[1]

    def test_zeta_tables(self):
        table = numerics._zeta_table(6, 32)
        assert isinstance(table, tuple) and len(table) == numerics._ORDERS
        assert table == tuple(numerics.zeta_tail(6.0 * m, 32)
                              for m in range(1, numerics._ORDERS + 1))
        assert numerics._zeta_table(6, 32) is table

    @pytest.mark.parametrize("p, cutoff", [(2, 16), (3, 40), (8, 5)])
    def test_series_tail_at_q_one_half(self, p, cutoff):
        # The largest radius series_tail accepts, q = (radius / K)^p next to 1/2,
        # sums the most orders (J = 52; c_52 stays finite at these K): bitwise
        # the per-order loop's sum.
        radius = cutoff * 0.5 ** (1.0 / p)
        while p * (math.log(radius) - math.log(cutoff)) > -math.log(2.0):
            radius = math.nextafter(radius, 0.0)
        while p * (math.log(math.nextafter(radius, math.inf)) - math.log(cutoff)) \
                <= -math.log(2.0):
            radius = math.nextafter(radius, math.inf)
        w = complex(0.6, 0.8) * radius ** p
        est, bound, j = per_order_tail(geometric(2.0, -w), p, cutoff, 2.0, radius)
        assert j == 52
        assert series_tail(geometric(2.0, -w), p, cutoff, 2.0, radius) == (est, bound)
        with pytest.raises(InvalidCutoffError):
            series_tail(geometric(2.0, -w), p, cutoff, 2.0, math.nextafter(radius, math.inf))

    def test_row_sums_are_pairwise(self):
        # The direct bar's (13 + log2(K)/2) eps sum |t| term counts the roundings
        # of numpy's pairwise sum (tests/pairwise.py), and so does the closed
        # pass's docstring: np.add.reduce(..., axis=1) over the C-contiguous
        # (1 or 2, K) blocks of _pair_sums and the (2, N) blocks of f and |f| of
        # closed._kernel_pass sums each row as that row alone, in the order of a
        # 1-D row.  A left-to-right sum rounds differently on some rows.
        sequential = 0
        for n in (1, 2, 3, 4):
            w = complex(0.3, 0.4) ** n
            for k in (16, 17, 31, 64, 100, 127, 128, 129, 255, 300, 513, 1000, 1024):
                d, rows = numerics.signed_powers(n, 1, k)
                inv = 1.0 / (rows + w)
                m = np.abs(inv)
                block = np.concatenate(((d + abs(w)) * m * m, m))
                assert block.flags.c_contiguous and inv.flags.c_contiguous
                for v, row in zip(np.add.reduce(inv, axis=1).tolist(), inv.tolist()):
                    re, im = [t.real for t in row], [t.imag for t in row]
                    assert v == complex(pairwise(re, 4, 64), pairwise(im, 4, 64)), (n, k)
                    sequential += v != complex(reduce(operator.add, re), reduce(operator.add, im))
                for v, row in zip(np.add.reduce(block, axis=1).tolist(), block.tolist()):
                    assert v == pairwise(row), (n, k)
                    sequential += v != reduce(operator.add, row)
        # Float and complex rows of every length to 600, terms over 40 binades
        # with both signs.
        rng = np.random.default_rng(27)
        for m in range(1, 601):
            x = rng.choice((-1.0, 1.0), 4 * m) * np.exp(rng.uniform(-40.0, 0.0, 4 * m))
            real, cplx = x[:2 * m].reshape(2, m), x.view(np.complex128).reshape(2, m)
            for v, row in zip(np.add.reduce(real, axis=1).tolist(), real):
                assert v == np.add.reduce(row).item() == pairwise(row.tolist()), m
                sequential += v != reduce(operator.add, row.tolist())
            for v, row in zip(np.add.reduce(cplx, axis=1).tolist(), cplx):
                assert v == np.add.reduce(row).item() == complex(
                    pairwise(row.real.tolist(), 4, 64), pairwise(row.imag.tolist(), 4, 64)), m
        assert sequential > 0

    def test_call_at_max_terms_keeps_no_chunk(self):
        # K = 3,000,002 needs a full 2M-term chunk and a second one; none
        # of their arrays (16 MB or more) may outlive the call.
        u_direct(1, 0.3)  # fill the small caches first
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            res = u_direct(1, 1.5e6 + 0.25)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.work == 2 * 3_000_002 + 1
        assert after - before < 1_000_000
