"""Tests for the certified Gauss-Legendre rule and the theta-integral route."""

import cmath
import math
import random

import numpy as np
import pytest

from cotlattice import (
    CotlatticeError,
    DomainError,
    NonConvergentError,
    QuadratureFailureError,
    Method,
    Tolerance,
    psi,
    u_closed,
    u_theta,
)
from cotlattice import quadrature, theta
from cotlattice.cli import main
from cotlattice.numerics import EPS
from cotlattice.quadrature import Panels, integrate_adaptive
from cotlattice.theta import _psi_t_array, _upper_piece
from cotlattice.verify import DEFAULT_VERIFY_GRID
from pairwise import pairwise
from psi_oracle import log_nome, psi_ref

PI_COTH_PI = 3.153348094937162  # pi * coth(pi) = U_2(1)


def wiggle(xs):
    return np.exp(-xs * xs) * np.cos(9.0 * xs)


def box(p):
    """Per rho of RHOS and panel of Panels p: the real parts' range and the
    half height of the panel's ellipse box, (lo, hi, beta), each (R, P)."""
    rho = quadrature.RHOS[:, None]
    alpha, beta = 0.5 * (rho + 1.0 / rho) * p.h, 0.5 * (rho - 1.0 / rho) * p.h
    return p.mid - alpha, p.mid + alpha, beta + 0.0 * p.h


def log_m_wiggle(p):
    # |e^(-z^2) cos 9z| <= e^(y^2 - x^2) cosh(9y) on the box
    lo, hi, beta = box(p)
    min_x2 = np.where((lo <= 0.0) & (hi >= 0.0), 0.0, np.minimum(lo * lo, hi * hi))
    return beta ** 2 - min_x2 + np.log(np.cosh(9.0 * beta))


def log_m_cos(omega):
    return lambda p: np.log(np.cosh(omega * box(p)[2]))


log_m_cos40 = log_m_cos(40.0)


def log_m_power(d):
    # |z^d| <= (|m| + alpha)^d on the ellipse
    return lambda p: d * np.log(np.maximum(abs(box(p)[0]), abs(box(p)[1])))


class TestGaussLegendre:
    """The rule's nodes and weights, and its exactness."""

    @pytest.mark.parametrize("order", quadrature.ORDERS)
    def test_tables_within_an_ulp_of_mpmath(self, order):
        # 1 + x and w are the doubles next to the exact values; numpy's leggauss
        # weights miss by up to 500 eps at 24 points, 5700 at 64.
        mp = pytest.importorskip("mpmath").mp
        shifted, weights = quadrature.gauss_legendre(order)
        with mp.workdps(40):
            for s, w in zip(shifted, weights):
                x = mp.findroot(lambda t: mp.legendre(order, t), mp.mpf(s) - 1)
                dp = mp.diff(lambda t: mp.legendre(order, t), x)
                assert abs(s - (1 + x)) <= 0.5 * math.ulp(s), (order, s)
                exact = 2 / ((1 - x * x) * dp * dp)
                assert abs(w - exact) <= 0.5 * math.ulp(w), (order, w)

    def test_exact_through_degree_2n_minus_1(self):
        p = quadrature.Panels([0.5], [2.0])
        for level, order in enumerate(quadrature.ORDERS, start=1):
            us, ws = p.nodes(np.array([level]))
            assert len(us) == order
            for d in range(2 * order):
                got = math.fsum(ws * us ** d)
                exact = (2.0 ** (d + 1) - 0.5 ** (d + 1)) / (d + 1)
                assert abs(got - exact) <= 1e-14 * exact, (order, d)
        # degree 2N is the rule's first error
        for level, order in ((1, 4), (3, 8)):
            us, ws = quadrature.Panels([-1.0], [1.0]).nodes(np.array([level]))
            assert abs(math.fsum(ws * us ** (2 * order)) - 2.0 / (2 * order + 1)) > 1e-6


class TestIntegrateAdaptive:
    """The certified rule: bounds only, one integrand call, no estimate."""

    def test_sine(self):
        # |sin z| <= cosh(Im z)
        res = integrate_adaptive(np.sin, Panels([0.0], [math.pi]),
                                 lambda p: np.log(np.cosh(box(p)[2])), 1e-12, 10_000)
        assert abs(res.value - 2.0) <= res.err_estimate <= 1e-12

    def test_oscillatory(self):
        res = integrate_adaptive(lambda x: np.cos(40.0 * x), Panels([0.0], [1.0]), log_m_cos40,
                                 1e-10, 100_000)
        exact = math.sin(40.0) / 40.0
        assert abs(res.value - exact) <= res.err_estimate <= 1e-10

    @pytest.mark.parametrize("target", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("panels", [1, 3])
    def test_oscillatory_meets_each_target(self, target, panels):
        edges = np.linspace(0.0, 1.0, panels + 1)
        res = integrate_adaptive(lambda x: np.cos(40.0 * x), Panels(edges[:-1], edges[1:]),
                                 log_m_cos40, target, 10_000)
        assert abs(res.value - math.sin(40.0) / 40.0) <= res.err_estimate <= 1.01 * target

    @pytest.mark.parametrize("target", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("panels", [1, 3])
    def test_bound_covers_entire_integrands(self, target, panels):
        edges = np.linspace(0.0, 6.0, panels + 1)
        res = integrate_adaptive(wiggle, Panels(edges[:-1], edges[1:]), log_m_wiggle, target,
                                 10_000)
        exact = 0.5 * math.sqrt(math.pi) * math.exp(-81.0 / 4.0)  # the tail past 6 is < 1e-16
        assert abs(res.value - exact) <= res.err_estimate + 1e-16
        assert res.err_estimate <= 1.01 * target

    def test_bound_is_close_where_the_rule_first_errs(self):
        # x^8 at 4 points, where the error is the rule's first: 0.0116 against a
        # bound of 0.0184 at rho = 10.  A bound a quarter of this would miss.
        res = integrate_adaptive(lambda x: x ** 8, Panels([-1.0], [1.0]), log_m_power(8),
                                 0.04, 1_000)  # one panel: its share is 0.02
        assert res.nodes == 4
        miss = abs(res.value - 2.0 / 9.0)
        assert 0.0116 < miss <= res.err_estimate < 1.6 * miss

    def test_one_integrand_call_bisections_included(self, monkeypatch):
        calls, halves = [], []
        split = quadrature.Panels.halves
        monkeypatch.setattr(quadrature.Panels, "halves",
                            lambda self, pick: halves.append(int(pick.sum())) or split(self, pick))
        res = integrate_adaptive(lambda xs: calls.append(len(xs)) or np.cos(200.0 * xs),
                                 Panels([0.0], [1.0]), log_m_cos(200.0), 1e-12, 10_000)
        assert halves  # 64 points cannot resolve 32 periods of cos 200x
        assert calls == [res.nodes]
        assert abs(res.value - math.sin(200.0) / 200.0) <= res.err_estimate

    def test_panel_that_fits_takes_no_node(self):
        # the second panel's own bound 2h e^(-36) is under its share
        calls = []
        res = integrate_adaptive(lambda xs: calls.append(xs) or np.exp(-xs * xs),
                                 Panels([0.0, 6.0], [6.0, 12.0]),
                                 lambda p: np.log(np.exp(-np.where(box(p)[0] > 0, box(p)[0], 0) ** 2)
                                                  * np.exp(box(p)[2] ** 2)), 1e-10, 10_000)
        assert calls[0].max() < 6.0
        assert abs(res.value - 0.5 * math.sqrt(math.pi)) <= res.err_estimate

    def test_first_round_over_budget_raises(self):
        # 64 nodes do not reach 1e-12 on cos 40x: raise before any is evaluated
        calls = []
        with pytest.raises(QuadratureFailureError, match="node budget 10 exhausted"):
            integrate_adaptive(lambda xs: calls.append(xs) or np.cos(40.0 * xs),
                               Panels([0.0], [1.0]), log_m_cos40, 1e-12, 10)
        assert calls == []

    def test_budget_exhaustion_raises(self):
        # cos 200x takes two halves of 48 nodes: a budget of 90 falls short
        calls = []
        with pytest.raises(QuadratureFailureError, match="node budget 90 exhausted: 96"):
            integrate_adaptive(lambda xs: calls.append(xs) or np.cos(200.0 * xs),
                               Panels([0.0], [1.0]), log_m_cos(200.0), 1e-12, 90)
        assert calls == []

    def test_nan_integrand_raises(self):
        with pytest.raises(QuadratureFailureError, match="not finite"):
            integrate_adaptive(lambda xs: np.where(xs < 0.3, np.nan, xs), Panels([0.0], [1.0]),
                               lambda p: np.zeros((len(quadrature.RHOS), p.a.size)), 1e-3, 1_000)

    def test_nan_bound_raises(self):
        with pytest.raises(QuadratureFailureError):
            integrate_adaptive(np.cos, Panels([0.0], [1.0]),
                               lambda p: np.full((len(quadrature.RHOS), p.a.size), np.nan),
                               1e-3, 1_000)

    def test_deterministic(self):
        runs = [integrate_adaptive(wiggle, Panels([0.0, 0.4], [0.4, 3.0]), log_m_wiggle,
                                   1e-11, 10_000) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_bad_interval(self):
        for a, b in (([1.0], [0.0]), ([0.0], [0.0]), ([0.0], [math.inf]), ([], []),
                     ([0.0, 1.0], [1.0])):
            with pytest.raises(ValueError):
                Panels(a, b)
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, Panels([0.0], [1.0]), log_m_cos40, 0.0, 100)


class TestBatchedPanels:
    """Every panel's nodes, bisected halves' included, go to the integrand in
    one call, and each panel's nodes are those it takes alone."""

    @pytest.mark.parametrize("breaks", [(), (0.4,), (0.4, 2.0)])
    def test_one_call_per_round(self, breaks, monkeypatch):
        calls, halves = [], []
        split = quadrature.Panels.halves
        monkeypatch.setattr(quadrature.Panels, "halves",
                            lambda self, pick: halves.append(int(pick.sum())) or split(self, pick))
        edges = np.array([0.0, *breaks, 6.0])
        res = integrate_adaptive(lambda xs: calls.append(len(xs)) or np.cos(45.0 * xs),
                                 Panels(edges[:-1], edges[1:]), log_m_cos(45.0), 1e-12, 10_000)
        assert halves  # 64 points cannot resolve 43 periods of cos 45x on [0, 6]
        assert calls == [res.nodes]
        assert abs(res.value - math.sin(270.0) / 45.0) <= res.err_estimate <= 1.01e-12

    def test_values_match_single_panels(self, monkeypatch):
        picked, calls = [], []
        nodes = quadrature.Panels.nodes
        monkeypatch.setattr(quadrature.Panels, "nodes",
                            lambda self, levels: picked.append((self, levels)) or nodes(self, levels))
        f = lambda xs: np.exp(-xs) * np.cos(45.0 * xs)  # |f| <= e^(beta - Re z) cosh(45 beta)
        res = integrate_adaptive(lambda xs: calls.append(xs) or f(xs),
                                 Panels([0.0, 0.4], [0.4, 6.0]),
                                 lambda p: box(p)[2] - box(p)[0] + np.log(np.cosh(45.0 * box(p)[2])),
                                 1e-12, 10_000)
        monkeypatch.undo()
        assert len(picked) > 1  # there were bisections
        xs_batch, = calls
        xs, ws, leaves = [], [], []
        for p, levels in picked:
            for i in np.flatnonzero(levels < len(quadrature.ORDERS) + 1).tolist():
                leaves.append((float(p.a[i]), float(p.b[i])))
            for lv in range(1, len(quadrature.ORDERS) + 1):  # grouped by level, as Panels.nodes
                for i in np.flatnonzero(levels == lv).tolist():
                    one_xs, one_ws = nodes(Panels([p.a[i]], [p.b[i]]), np.array([lv]))
                    xs.append(one_xs)
                    ws.append(one_ws)
        assert np.concatenate(xs).tolist() == xs_batch.tolist()
        # The panels not bisected tile [0, 6]; their sums make the result.
        leaves.sort()
        assert leaves[0][0] == 0.0 and leaves[-1][1] == 6.0
        assert all(x[1] == y[0] for x, y in zip(leaves, leaves[1:]))
        terms = [w * f(x) for x, w in zip(xs, ws)]
        total = math.fsum(math.fsum(t) for t in terms)
        rounding = (24 + xs_batch.size.bit_length()) * EPS * math.fsum(
            math.fsum(abs(t)) for t in terms)
        assert abs(res.value - total) <= rounding


class TestPsiNome:
    """psi checks its own nome: 0 < q < 1, the series taken at t = -log q."""

    def test_accepts_interior(self):
        res = psi(1, 0.25)
        brute = 1.0 + 2.0 * math.fsum(0.25 ** (k * k) for k in range(1, 30))
        assert abs(res.value.real - brute) <= res.err_estimate

    def test_rejects_boundary_and_outside(self):
        # With t passed in beside q, q = 2 raised a bare math domain error
        # and q = nan summed 10^7 terms before a NonConvergentError.
        for q in (0.0, 1.0, -0.1, 1.5, 2.0, float("nan")):
            with pytest.raises(DomainError) as exc:
                psi(1, q)
            assert str(exc.value) == f"domain: theta nome q must lie in (0, 1), got {q!r}"


class TestPsi:
    """Psi_n(q) = 1 + 2 sum q^(k^(2n)) with a dominated tail."""

    def test_frozen_small_nome(self):
        # 1 + 2(0.1 + 0.1^4 + 0.1^9 + ...) to double precision.
        res = psi(1, 0.1)
        assert abs(res.value.real - 1.2002000019999999) < 1e-15
        assert res.err_estimate < 1e-14

    def test_frozen_sparse_exponents(self):
        # n=2: exponents k^4, so 1 + 2(0.5 + 0.5^16 + ...).
        res = psi(2, 0.5)
        assert res.value.real == 2.000030517578125

    def test_matches_brute_force(self):
        for n, q in ((1, 0.7), (1, 0.3), (2, 0.9), (3, 0.6)):
            brute = 1.0 + 2.0 * math.fsum(
                q ** (k ** (2 * n)) for k in range(1, 60))
            res = psi(n, q)
            assert abs(res.value.real - brute) <= res.err_estimate

    def test_work_is_odd_term_count(self):
        # work counts the 2K + 1 terms of psi's node exactly, 1 where none is summed.
        for n, t, work in (
            (2, 1e-12, 1),     # Poisson's lead: Psi_2 ~ 1812.8, no term summed
            (4, 1e-14, 181),   # the most terms at any double nome: k <= 90
            (456, 0.1, 3),     # k = 1 only; 3^912 leaves the double range
            (2, 46.0, 1),      # past the cut: exactly 1
        ):
            assert psi(n, math.exp(-t)).work == work, (n, t)

    def test_sum_does_not_depend_on_tolerance(self):
        # The tolerance only caps the terms: value, bar and work are the node's.
        for n, q in ((1, 0.1), (2, 0.999), (4, 0.5)):
            outs = {repr(psi(n, q, tol)) for tol in (Tolerance(), Tolerance(0.0, 1e-15),
                                                     Tolerance(1e-3, 0.0, max_terms=200))}
            assert len(outs) == 1, (n, q)

    def test_budget_message_quotes_the_charged_terms(self):
        # k = 3 pairs of terms plus the leading 1: the 2k + 1 = 7 that
        # work counts, not k.  t = 3.2 >= pi sums the direct series.
        with pytest.raises(NonConvergentError) as exc:
            psi(1, 0.04, Tolerance(max_terms=4))
        assert str(exc.value) == ("psi(n=1, q=0.04): 7 terms exceed max_terms=4 "
                                  "before meeting tolerance")

    def test_overflowing_power_is_a_zero_term(self, capsys):
        # 3^912 leaves the double range: that term and the tail are 0.
        q = 0.884192827198217
        res = psi(456, q)
        assert abs(res.value.real - (1.0 + 2.0 * q)) <= res.err_estimate
        assert main(["theta", "-n", "456", "-q", repr(q)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1


    @pytest.mark.parametrize("q", ["0.999999", "0.9999999"])
    def test_stops_on_tail_bound_near_one(self, q, capsys):
        # Near q = 1, where n = 1 sums Jacobi's dual series (t < pi), the
        # value lies within its bar of mpmath's theta3.
        assert main(["theta", "-n", "1", "-q", q]) == 0
        cells = dict(cell.split("=", 1) for cell in capsys.readouterr().out.split())
        value, err = float(cells["value_re"]), float(cells["err_estimate"])
        assert abs(value - psi_ref(1, log_nome(float(q)))) <= err


#: 16 Gauss-Legendre nodes on each panel [0, 2^-j], as bisection next to t = 0
#: makes them, where the smallest node needs far more theta terms than the rest.
T_PANELS = [Panels([0.0], [2.0 ** -j]).nodes(np.array([5]))[0] for j in range(21)]


class TestPsiTArray:
    """The vectorized theta series truncates each node at its own cut."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 32])
    def test_matches_scalar_psi(self, n):
        # At the t = -log q of a double q, a node is psi(n, q): the same value
        # and count, within psi's bar of 40-digit mpmath at the exact -log q.
        for ts in T_PANELS:
            qs = np.exp(-ts)
            ts = np.array([-math.log(q) for q in qs])
            values, counts = _psi_t_array(n, ts)
            for q, t, v, k in zip(qs, ts, values, counts):
                res = psi(n, q)
                assert (res.value.real, res.work) == (v, 2 * k + 1), (n, q)
                assert abs(v - psi_ref(n, log_nome(q))) <= res.err_estimate, (n, q)
                # At the node's own t the sum is within a few ulps, whatever psi's bar.
                ref = psi_ref(n, t)
                assert abs(v - ref) <= 1e-15 * ref, (n, q)

    def test_matches_jtheta(self):
        for ts in T_PANELS:
            for t, v in zip(ts, _psi_t_array(1, ts)[0]):
                ref = psi_ref(1, t)
                assert abs(v - ref) <= 4 * EPS * ref, t

    def test_past_cut_is_exactly_one(self):
        ts = np.array([45.0 + 1e-12, 50.0, 60.0, 1e3])
        assert _psi_t_array(1, ts)[0].tolist() == [1.0] * 4
        mixed = _psi_t_array(2, np.array([1e-6, 46.0]))[0]
        assert mixed[1] == 1.0 and mixed[0] > 1.0

    def test_deep_nodes_take_the_lead(self):
        # Past the switch Psi_2(e^(-t)) is 2 Gamma(5/4) t^(-1/4) to e^(-45):
        # no term count, however small t; t = 1 still sums its series.
        ts = np.array([1e-27, 1e-200, 1.0])
        got, counts = _psi_t_array(2, ts)
        assert counts.tolist() == [0, 0, 2]
        for t, v in zip(ts[:2], got[:2]):
            lead = 2.0 * math.gamma(1.25) * t ** -0.25
            assert abs(v - lead) <= 2 * EPS * lead, t
        assert got[2] == 1.0 + 2.0 * (math.exp(-1.0) + math.exp(-16.0) + math.exp(-81.0))

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_matches_mpmath_across_the_switch(self, n):
        # The switch sits at t = (sin(pi/(6n)) / _Y_LEAD)^(2n): just below it
        # the lead, just above it up to 40n terms a node.
        switch = (math.sin(math.pi / (6 * n)) / theta._Y_LEAD) ** (2 * n)
        ts = np.array([switch * (1.0 - 1e-9), switch * (1.0 + 1e-9)])
        for t, v in zip(ts, _psi_t_array(n, ts)[0]):
            ref = psi_ref(n, t)
            assert abs(v - ref) <= 1e-15 * ref, (n, float(t))

    @pytest.mark.parametrize("n", [2, 3])
    def test_flat_pairs_match_scalar_psi(self, n):
        # Nodes just short of the switch sum up to 40n terms each: with nodes past
        # the cut (no terms) between them, their pairs fill four passes, and
        # some nodes' terms straddle a pass boundary.  Each copy of a node lies
        # within psi's bar of 40-digit mpmath and within a few ulps of it at its
        # own t, the copies summed in one pass bitwise at psi's value.
        near = (math.sin(math.pi / (6 * n)) / theta._Y_LEAD) ** (2 * n) * 1.01
        qs = np.exp(-np.array([near, 50.0, near * 3.0, 46.0, 0.5]))
        ts = np.tile([-math.log(q) for q in qs], 400)  # the t = -log q at which psi sums
        kcut = (45.0 / ts) ** (0.5 / n)
        assert int(kcut.astype(int).sum()) > 3 * theta._CHUNK
        got, counts = _psi_t_array(n, ts)
        assert got[1::5].tolist() == got[3::5].tolist() == [1.0] * 400
        for q, t in zip(qs, ts[:5]):
            res = psi(n, q)
            v = got[ts == t]  # a node split over two passes sums in two parts
            assert (counts[ts == t] == res.work // 2).all(), (n, t)
            assert (v == res.value.real).sum() >= 400 - 3, (n, t)  # 3 pass boundaries
            assert (abs(v - psi_ref(n, log_nome(q))) <= res.err_estimate).all(), (n, t)
            ref = psi_ref(n, t)
            assert (abs(v - ref) <= 1e-15 * ref).all(), (n, t)

    def test_jacobi_dual_matches_jtheta(self):
        # n = 1 sums Jacobi's dual series for t < pi, the direct one above.
        ts = np.array([1e-300, 1e-13, 1e-6, math.pi - 1e-12, math.pi + 1e-12, 10.0])
        for t, v in zip(ts, _psi_t_array(1, ts)[0]):
            ref = psi_ref(1, t)
            assert abs(v - ref) <= 4 * EPS * ref, t

    def test_reduceat_sums_pairwise(self):
        # The bar's count of a term's roundings rests on np.add.reduceat's order: a
        # segment's first term plus numpy's pairwise sum of the rest (tests/pairwise.py).
        # Terms over 40 binades make any other order round differently somewhere.
        lens = np.arange(1, 300)
        heads = lens.cumsum() - lens
        x = np.exp(np.random.default_rng(5).uniform(-40.0, 0.0, int(lens.sum())))
        for h, m, v in zip(heads, lens, np.add.reduceat(x, heads)):
            seg = x[h:h + m].tolist()
            assert v == seg[0] + pairwise(seg[1:]), m


class TestPerOrder:
    """Each order's panels, their s-free constants and, per node set, the
    integrand's s-free factor: a result does not depend on what was kept before it."""

    @staticmethod
    def outcomes(points, tol):
        out = []
        for n, z in points:
            try:
                res = u_theta(n, z, tol)
                out.append(repr((res.value, res.err_estimate, res.work)))
            except CotlatticeError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    def test_results_do_not_depend_on_the_caches(self, monkeypatch):
        rng = random.Random(23)
        points = []
        for n in range(1, 33):
            for lo, hi in ((0.02, 0.5), (0.5, 50.0)):
                r = rng.uniform(lo, hi) ** (0.5 / n)
                arg = rng.uniform(-0.45, 0.45) * math.pi / (2 * n) if n % 3 else 0.0
                points.append((n, cmath.rect(r, arg) * (-1) ** rng.randrange(2)))
        for tol in (DEFAULT_VERIFY_GRID.tol, Tolerance()):
            theta._per_order.cache_clear()
            cold = self.outcomes(points, tol)
            warm = self.outcomes(points, tol)
            theta._per_order.cache_clear()
            reverse = self.outcomes(points[::-1], tol)[::-1]
            monkeypatch.setattr(quadrature, "MEMO", 0)  # nodes and factor built afresh each call
            theta._per_order.cache_clear()
            unkept = self.outcomes(points, tol)
            monkeypatch.undo()
            assert cold == warm == reverse == unkept

    def test_first_call_builds_one_order(self, monkeypatch):
        # The set-up's first verify of U_4 pays for order 2 alone, and sums
        # Psi_n only at the nodes the bound pass chose.
        theta._per_order.cache_clear()
        calls = []
        factor = theta._theta_factor
        monkeypatch.setattr(theta, "_theta_factor",
                            lambda n, us: calls.append((n, us.copy())) or factor(n, us))
        res = u_theta(2, 0.7, DEFAULT_VERIFY_GRID.tol)
        assert theta._per_order.cache_info().currsize == 1
        order = theta._per_order(2)
        (us, _), = order.panels.memo.values()  # one round: no panel bisected
        assert [n for n, _ in calls] == [2]
        assert calls[0][1].tolist() == us.tolist() and len(us) == res.work > 0
        assert list(order.memo) == [us.tobytes()]

    def test_memos_stay_under_the_cap(self, monkeypatch):
        # Fed more choices of levels than the cap, neither memo grows past it,
        # and every result stays bitwise the one of a run with room to spare.
        rng = random.Random(29)
        points = [(n, cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(-0.9, 0.9) * math.pi / (4 * n)))
                  for n in (2, 8) for _ in range(40)]
        tol = DEFAULT_VERIFY_GRID.tol
        theta._per_order.cache_clear()
        roomy = self.outcomes(points, tol)
        assert min(len(theta._per_order(n).panels.memo) for n in (2, 8)) > 3
        monkeypatch.setattr(quadrature, "MEMO", 3)
        theta._per_order.cache_clear()
        assert self.outcomes(points, tol) == roomy
        for n in (2, 8):
            order = theta._per_order(n)
            assert len(order.panels.memo) == len(order.memo) == 3

    def test_ladder(self):
        # [0, u0], where the evaluator returns the entire lead, then panels of
        # ratio at most 1 + _RATIO/n up to 1.
        for n in (1, 2, 7, 32, 99):
            order = theta._per_order(n)
            a, b = order.panels.a, order.panels.b
            assert a[0] == 0.0 and b[0] == order.u0 and b[-1] == 1.0
            assert (a[1:] == b[:-1]).all()
            assert (b[1:] / a[1:] <= 1.0 + theta._RATIO / n + 1e-12).all()
        assert theta._per_order(1).u0 == math.pi / math.sqrt(45.0)
        assert theta._per_order(4).u0 == math.sin(math.pi / 24) / theta._Y_LEAD


class TestFirstRound:
    """What an order keeps, nodes per choice of levels and the s-free factor
    per node set, is bitwise what a fresh build gives, and read-only."""

    def test_nodes_are_kept_per_levels(self):
        p = theta._per_order(3).panels
        levels = np.arange(p.a.size) % (len(quadrature.ORDERS) + 2)
        xs, ws = p.nodes(levels)
        again = p.nodes(levels.copy())
        assert again[0] is xs and again[1] is ws
        fresh = Panels(p.a, p.b).nodes(levels)
        assert xs.tolist() == fresh[0].tolist() and ws.tolist() == fresh[1].tolist()
        for a in (xs, ws):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_cached_arrays_are_read_only(self):
        for n, z in ((1, 0.7), (2, 0.7), (32, 0.9)):
            theta._per_order.cache_clear()
            u_theta(n, z, DEFAULT_VERIFY_GRID.tol)
            order = theta._per_order(n)
            assert order.memo
            for key, kept in order.memo.items():
                us = np.frombuffer(key)
                assert len(kept) == 3 and all(a.shape == us.shape for a in kept)
                assert order.factor(us.copy()) is kept
                for a, b in zip(kept, theta._theta_factor(n, us)):
                    assert a.tolist() == b.tolist()
                    with pytest.raises(ValueError):
                        a[0] = 1.0


class TestUTheta:
    """u_theta(n, z) evaluates U_2n(z) via the Laplace integral."""

    def test_u2_at_one(self):
        res = u_theta(1, 1.0)
        assert abs(res.value - PI_COTH_PI) <= res.err_estimate
        assert res.err_estimate < 1e-8
        assert res.work <= 10_000
        assert res.method is Method.THETA_INTEGRAL

    def test_matches_closed_form(self):
        for n, z in ((1, 0.5), (2, 0.7), (2, 1.3), (3, 0.9)):
            res = u_theta(n, z)
            ref = u_closed(2 * n, z)
            assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate

    def test_unreachable_target_raises_early(self, monkeypatch):
        # The bound pass sizes every panel first: a target the budget cannot
        # reach raises before any node's Psi is summed.
        calls = []
        factor = theta._theta_factor
        monkeypatch.setattr(theta, "_theta_factor",
                            lambda n, us: calls.append(len(us)) or factor(n, us))
        z = 2.57530430523625 - 0.3921527485311234j
        with pytest.raises(QuadratureFailureError, match="node budget 100 exhausted"):
            u_theta(4, z, Tolerance(0.0, 1e-13, max_nodes=100))
        assert calls == []
        res = u_theta(4, z, Tolerance(0.0, 1e-13))  # 428 nodes, under the 1e-13 target
        assert res.err_estimate <= 1e-13 * abs(res.value)

    def test_complex_point(self):
        z = 0.5 + 0.5j  # z^8 = 1/16, real and positive
        res = u_theta(4, z)
        ref = u_closed(8, z)
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate

    def test_work_counts_nodes(self):
        assert u_theta(1, 1.0).work > 0

    def test_negative_real_power_rejected(self):
        with pytest.raises(DomainError):
            u_theta(1, 1.0j)  # z^2 = -1

    def test_zero_real_power_rejected(self):
        with pytest.raises(DomainError):
            u_theta(1, 1.0 + 1.0j)  # z^2 = 2i, Re = 0

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            u_theta(2, 0.0)

    def test_underflowing_nodes_contribute_zero(self):
        # u^198 underflows at the first panel's nodes next to u = 0.
        z = 10.465838347973358
        res = u_theta(99, z)
        ref = u_closed(198, z)
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate

    def test_narrow_mass_found_at_a_relative_target(self):
        # At n = 99, z = 10.47 the integrand in u is a spike of width ~5e-4 at
        # u* = 0.0955, and U ~ 1e-200: the absolute target skips every panel,
        # a relative one finds the spike.
        z = 10.465838347973358
        res = u_theta(99, z)
        assert res.value == 0 and res.err_estimate < 1e-199
        res = u_theta(99, z, Tolerance(0.0, 1e-10))
        ref = u_closed(198, z)
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate
        assert 0 < res.err_estimate <= 1e-10 * abs(res.value)

    @pytest.mark.parametrize("z", ["6000", "1e5"])
    def test_large_z_u2(self, z, capsys):
        # Jacobi's transform lets U_2's nodes next to t = 0 cost a few terms.
        res, ref = u_theta(1, float(z)), u_closed(2, float(z))
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate
        assert main(["eval", "-n", "2", "-z", z, "--method", "theta"]) == 0
        cells = dict(cell.split("=", 1) for cell in capsys.readouterr().out.split())
        assert float(cells["value_re"]) == res.value.real

    @pytest.mark.parametrize("n, z", [(2, 1e5), (2, 15000.0), (3, 20000.0)])
    def test_large_z_poisson_lead(self, n, z):
        # Nodes next to t = 0 take Poisson's lead, where the series would need
        # 6.5e7 (n = 2, z = 1e5) and 1.3e7 terms per node.
        res, ref = u_theta(n, z), u_closed(2 * n, z)
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate

    def test_unrepresentable_power_rejected(self):
        # 0.5^1024 is subnormal; its reciprocal overflows.
        with pytest.raises(DomainError):
            u_theta(512, 0.5)


def lattice_mp(order, z, dps=40):
    """U_order(z) to ``dps`` digits, as the benchmark oracle's sums do
    it but free of the closed form: 1/s + 2 sum_{k<=K} 1/(k^order + s)
    plus the tail 2 sum_m (-s)^(m-1) zeta(order m, K + 1), s = z^order."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(dps + 10):
        s = mp.mpc(z) ** order
        big = max(10, 2 * math.ceil(abs(z)))
        total = 1 / s + 2 * mp.fsum(1 / (mp.mpf(k) ** order + s) for k in range(1, big + 1))
        m = 1
        while True:
            term = 2 * (-s) ** (m - 1) * mp.zeta(order * m, big + 1)
            total += term
            if abs(term) < mp.mpf(10) ** -(dps + 5) * abs(total):
                return complex(total)
            m += 1


class TestThetaOracle:
    """Theta bars are bounds against independent high-precision sums."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", [0.05, 7.5, 1.0 + 2.0j, 0.2 - 0.7j])
    def test_upper_piece_matches_quad(self, n, s):
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(20):
            sm = mp.mpc(s)

            def integrand(t):
                psi_t = 1 + 2 * mp.fsum(mp.exp(-t * k ** (2 * n)) for k in range(1, 10))
                return mp.exp(-t * sm) * psi_t

            ref = complex(mp.quad(integrand, [1, 2, 4, 8, 16, 32, mp.inf]))
        value, err = _upper_piece(n, s, 1e-20)
        assert abs(value - ref) <= err
        assert err <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("order, z", [
        (4, 2.014807),
        (4, -2.065055),
        (6, 0.81843 - 1.34477j),
        (198, 10.465838347973358),
    ])
    @pytest.mark.parametrize("tol", [DEFAULT_VERIFY_GRID.tol, Tolerance()])
    def test_pinned_points(self, order, z, tol):
        ref = lattice_mp(order, z)
        res = u_theta(order // 2, z, tol)
        assert abs(res.value - ref) <= res.err_estimate
        assert res.err_estimate <= tol.target(abs(ref))
