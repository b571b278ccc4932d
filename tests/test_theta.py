"""Tests for the Kronrod quadrature core and the theta-integral route."""

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
from cotlattice.quadrature import _gk15, integrate_adaptive, kronrod_nodes
from cotlattice.theta import _psi_t_array, _upper_piece
from cotlattice.verify import DEFAULT_VERIFY_GRID

PI_COTH_PI = 3.153348094937162  # pi * coth(pi) = U_2(1)


class TestGK15Panel:
    """One Kronrod panel integrates low-degree polynomials exactly."""

    def test_polynomial_exactness(self):
        # The 15-point Kronrod extension of G7 is exact through degree 22.
        for deg in (0, 5, 13, 22):
            value, err, _ = _gk15(lambda x, d=deg: x**d, (0.0,), (1.0,))[0]
            exact = 1.0 / (deg + 1)
            assert abs(value - exact) < 1e-14 * exact + 1e-16

    def test_error_model_covers_smooth(self):
        value, err, _ = _gk15(np.sin, (0.0,), (1.0,))[0]
        exact = 1.0 - math.cos(1.0)
        assert abs(value - exact) <= err


class TestIntegrateAdaptive:
    """Adaptive bisection meets its target with an honest bound."""

    def test_sine(self):
        res = integrate_adaptive(np.sin, 0.0, math.pi,
                                 abs_tol=1e-12, rel_tol=0.0, max_nodes=10_000)
        assert abs(res.value - 2.0) <= res.err_estimate
        assert res.err_estimate <= 1e-12

    def test_integrable_endpoint_singularity(self):
        res = integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                                 abs_tol=1e-8, rel_tol=0.0, max_nodes=100_000)
        assert abs(res.value - 2.0) <= max(res.err_estimate, 1e-8)

    def test_oscillatory(self):
        res = integrate_adaptive(lambda x: np.cos(40.0 * x), 0.0, 1.0,
                                 abs_tol=1e-10, rel_tol=0.0, max_nodes=100_000)
        exact = math.sin(40.0) / 40.0
        assert abs(res.value - exact) <= res.err_estimate + 1e-14

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureFailureError):
            integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                               abs_tol=1e-12, rel_tol=0.0, max_nodes=45)

    def test_first_round_over_budget_raises(self):
        # 4 first panels need 60 nodes: raise before any is evaluated.
        calls = []
        with pytest.raises(QuadratureFailureError, match="node budget 10 exhausted"):
            integrate_adaptive(lambda xs: calls.append(xs) or np.exp(xs), 0.0, 1.0,
                               abs_tol=1e-3, rel_tol=0.0, max_nodes=10,
                               breaks=(0.25, 0.5, 0.75))
        assert calls == []

    def test_nan_integrand_raises(self):
        # A nan error bound picks no panel to bisect; it must not loop forever.
        with pytest.raises(QuadratureFailureError, match="error bound nan after 15 nodes"):
            integrate_adaptive(lambda xs: np.where(xs < 0.3, np.nan, xs), 0.0, 1.0,
                               abs_tol=1e-3, rel_tol=0.0, max_nodes=1_000)

    def test_deterministic(self):
        runs = [integrate_adaptive(lambda x: np.exp(-x * x), 0.0, 3.0,
                                   abs_tol=1e-11, rel_tol=0.0, max_nodes=10_000)
                for _ in range(2)]
        assert runs[0].value == runs[1].value
        assert runs[0].nodes == runs[1].nodes

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 1.0, 0.0,
                               abs_tol=1e-10, rel_tol=0.0, max_nodes=100)
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 0.0, 1.0, abs_tol=1e-10, rel_tol=0.0,
                               max_nodes=100, breaks=(1.0,))


def wiggle(xs):
    return np.exp(-xs * xs) * np.cos(9.0 * xs)


class TestBatchedPanels:
    """Each round's bisections share one integrand call, and the batch
    computes each panel as _gk15 computes it alone."""

    @pytest.mark.parametrize("breaks", [(), (0.4,), (0.4, 2.0)])
    def test_one_call_per_round(self, breaks, monkeypatch):
        sizes, panels = [], []
        batched = quadrature._gk15
        monkeypatch.setattr(quadrature, "_gk15",
                            lambda f, a, b: panels.append(len(a)) or batched(f, a, b))
        res = integrate_adaptive(lambda xs: sizes.append(len(xs)) or wiggle(xs),
                                 0.0, 6.0, abs_tol=1e-12, rel_tol=0.0,
                                 max_nodes=10_000, breaks=breaks)
        assert sizes[0] == 15 * (len(breaks) + 1)
        # Each later call bisects the round's panels: two halves of 15 nodes each.
        assert len(sizes) > 1
        assert all(size == 15 * count and count % 2 == 0
                   for size, count in zip(sizes[1:], panels[1:]))
        assert sum(sizes) == res.nodes
        # One bisection per call makes 1 + (nodes - first call) / 30 calls; no more here.
        assert len(sizes) <= 1 + (res.nodes - sizes[0]) // 30
        assert abs(res.value - 0.5 * math.sqrt(math.pi) * math.exp(-81.0 / 4.0)) \
            <= res.err_estimate + 1e-16  # + the tail past 6, under 1e-16

    def test_values_match_single_panels(self, monkeypatch):
        batches = []
        batched = quadrature._gk15

        def spy(f, a, b):
            out = batched(f, a, b)
            batches.append((tuple(a), tuple(b), out))
            return out

        monkeypatch.setattr(quadrature, "_gk15", spy)
        res = integrate_adaptive(wiggle, 0.0, 3.0, abs_tol=1e-12, rel_tol=0.0,
                                 max_nodes=10_000, breaks=(0.4,))
        monkeypatch.undo()
        panels = {}
        for lo, hi, out in batches:
            for a, b, (value, err, resabs) in zip(lo, hi, out):
                single = _gk15(wiggle, (a,), (b,))[0]
                assert value == single[0]
                assert err == single[1]
                panels[(a, b)] = value
        # The panels not bisected tile [0, 3]; their values make the result.
        split = {(a, b) for a, b in panels if (a, 0.5 * (a + b)) in panels}
        leaves = sorted(k for k in panels if k not in split)
        assert leaves[0][0] == 0.0 and leaves[-1][1] == 3.0
        assert all(x[1] == y[0] for x, y in zip(leaves, leaves[1:]))
        assert res.value == pytest.approx(math.fsum(panels[k] for k in leaves), rel=1e-15)


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
        res = psi(1, 0.1)
        assert res.work % 2 == 1

    def test_budget_message_quotes_the_charged_terms(self):
        # k = 2 pairs of terms plus the leading 1: the 2k + 1 = 5 that
        # work counts, not k.  t = 3.2 >= pi sums the direct series.
        with pytest.raises(NonConvergentError) as exc:
            psi(1, 0.04, Tolerance(max_terms=4))
        assert str(exc.value) == ("psi(n=1, q=0.04): 5 terms exceed max_terms=4 "
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
        mp = pytest.importorskip("mpmath").mp
        assert main(["theta", "-n", "1", "-q", q]) == 0
        cells = dict(cell.split("=", 1) for cell in capsys.readouterr().out.split())
        value, err = float(cells["value_re"]), float(cells["err_estimate"])
        with mp.workdps(30):
            assert abs(mp.mpf(value) - mp.jtheta(3, 0, mp.mpf(float(q)))) <= err


#: Panels [0, 2^-j] as the adaptive quadrature produces them next to t = 0,
#: where the smallest node needs far more theta terms than the rest.
T_PANELS = [kronrod_nodes((0.0,), (2.0 ** -j,))[1] for j in range(21)]


class TestPsiTArray:
    """The vectorized theta series truncates each node at its own cut."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 32])
    def test_matches_scalar_psi(self, n):
        tol = Tolerance(abs_tol=0.0, rel_tol=1e-16)
        for ts in T_PANELS:
            qs = np.exp(-ts)
            # psi sums at t' = -log q, which near t = 1e-9 is many ulps from t
            for q, v in zip(qs, _psi_t_array(n, -np.log(qs))):
                ref = psi(n, q, tol)
                # psi's bound plus two ulps for the array's own rounding
                assert abs(v - ref.value.real) <= ref.err_estimate + 2 * EPS * v, (n, q)

    def test_matches_jtheta(self):
        mp = pytest.importorskip("mpmath").mp

        def theta3(t):
            t = mp.mpf(t)
            if mp.exp(-t) < mp.THETA_Q_LIM:
                return mp.jtheta(3, 0, mp.exp(-t))
            # jtheta refuses q this close to 1; use Jacobi's transform
            return mp.sqrt(mp.pi / t) * mp.jtheta(3, 0, mp.exp(-mp.pi ** 2 / t))

        with mp.workdps(30):
            for ts in T_PANELS:
                for t, v in zip(ts, _psi_t_array(1, ts)):
                    ref = theta3(t)
                    assert abs(v - ref) <= 4 * EPS * ref, t

    def test_past_cut_is_exactly_one(self):
        ts = np.array([45.0 + 1e-12, 50.0, 60.0, 1e3])
        assert _psi_t_array(1, ts).tolist() == [1.0] * 4
        mixed = _psi_t_array(2, np.array([1e-6, 46.0]))
        assert mixed[1] == 1.0 and mixed[0] > 1.0

    def test_deep_nodes_take_the_lead(self):
        # Past the switch Psi_2(e^(-t)) is 2 Gamma(5/4) t^(-1/4) to e^(-45):
        # no term count, however small t; t = 1 still sums its series.
        ts = np.array([1e-27, 1e-200, 1.0])
        got = _psi_t_array(2, ts)
        for t, v in zip(ts[:2], got[:2]):
            lead = 2.0 * math.gamma(1.25) * t ** -0.25
            assert abs(v - lead) <= 2 * EPS * lead, t
        assert got[2] == 1.0 + 2.0 * (math.exp(-1.0) + math.exp(-16.0) + math.exp(-81.0))

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_matches_mpmath_across_the_switch(self, n):
        # The switch sits at t = (sin(pi/(6n)) / _Y_LEAD)^(2n): just below it
        # the lead, just above it up to 40n terms a node.
        mp = pytest.importorskip("mpmath").mp
        switch = (math.sin(math.pi / (6 * n)) / theta._Y_LEAD) ** (2 * n)
        ts = np.array([switch * (1.0 - 1e-9), switch * (1.0 + 1e-9)])
        with mp.workdps(40):
            for t, v in zip(ts, _psi_t_array(n, ts)):
                t = mp.mpf(float(t))
                # Terms past t k^(2n) = 120 are below e^(-120).
                top = int((120 / t) ** (mp.mpf(1) / (2 * n))) + 1
                ref = 1 + 2 * mp.fsum(mp.exp(-t * mp.mpf(k) ** (2 * n)) for k in range(1, top + 1))
                assert abs(v - ref) <= 1e-15 * ref, (n, float(t))

    @pytest.mark.parametrize("n", [2, 3])
    def test_flat_pairs_match_scalar_psi(self, n):
        # Nodes just short of the switch sum up to 40n terms each: with nodes past
        # the cut (no terms) between them, their pairs fill four passes, and
        # some nodes' terms straddle a pass boundary.
        near = (math.sin(math.pi / (6 * n)) / theta._Y_LEAD) ** (2 * n) * 1.01
        qs = np.exp(-np.array([near, 50.0, near * 3.0, 46.0, 0.5]))
        ts = np.tile(-np.log(qs), 400)  # the t' = -log q at which psi sums
        kcut = (45.0 / ts) ** (0.5 / n)
        assert int(kcut.astype(int).sum()) > 3 * theta._CHUNK
        got = _psi_t_array(n, ts)
        assert got[1::5].tolist() == got[3::5].tolist() == [1.0] * 400
        tol = Tolerance(abs_tol=0.0, rel_tol=1e-16)
        for q, t in zip(qs, ts[:5]):
            ref = psi(n, q, tol)
            v = got[ts == t]  # a node split over two passes sums in two parts
            assert (abs(v - ref.value.real) <= ref.err_estimate + 2 * EPS * v).all(), (n, t)

    def test_jacobi_dual_matches_jtheta(self):
        # n = 1 sums Jacobi's dual series for t < pi, the direct one above.
        mp = pytest.importorskip("mpmath").mp

        def theta3(t):
            if mp.exp(-t) < mp.THETA_Q_LIM:
                return mp.jtheta(3, 0, mp.exp(-t))
            return mp.sqrt(mp.pi / t) * mp.jtheta(3, 0, mp.exp(-mp.pi ** 2 / t))

        ts = np.array([1e-300, 1e-13, 1e-6, math.pi - 1e-12, math.pi + 1e-12, 10.0])
        with mp.workdps(40):
            for t, v in zip(ts, _psi_t_array(1, ts)):
                ref = theta3(mp.mpf(float(t)))
                assert abs(v - ref) <= 4 * EPS * ref, t


class TestFirstRound:
    """Where no panel edge depends on s, the first round's nodes, t and the
    s-free factor of the integrand are built once per order: results are
    bitwise those of evaluating that round at each call."""

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

    def test_cached_round_is_bitwise_the_computed_one(self, monkeypatch):
        rng = random.Random(23)
        points = []
        for n in range(1, 33):
            for lo, hi in ((0.02, 0.5), (0.5, 50.0)):  # |z^2n|: the cached round, then mostly not
                r = rng.uniform(lo, hi) ** (0.5 / n)
                arg = rng.uniform(-0.45, 0.45) * math.pi / (2 * n) if n % 3 else 0.0
                points.append((n, cmath.rect(r, arg) * (-1) ** rng.randrange(2)))
        hits = sum((z ** (2 * n)).real <= 1.0 - 0.5 / n for n, z in points)
        assert hits >= 32
        for tol in (DEFAULT_VERIFY_GRID.tol, Tolerance()):
            theta._per_order.cache_clear()
            cold = self.outcomes(points, tol)
            warm = self.outcomes(points, tol)
            per_order = theta._per_order
            # a key no node array matches: every round evaluates its own factor
            monkeypatch.setattr(theta, "_per_order", lambda n: (*per_order(n)[:2], None,
                                                                *per_order(n)[3:]))
            computed = self.outcomes(points, tol)
            monkeypatch.undo()
            assert cold == warm == computed

    def test_cached_arrays_are_read_only(self):
        for n in (1, 2, 32):
            _, _, key, ts, factor = theta._per_order(n)
            assert len(key) == 60 * 8 and ts.shape == factor.shape == (60,)
            for a in (ts, factor):
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
        # The resolved panels' 50 eps resabs floors exceed the 1e-13
        # relative target, which no bisection lowers: raise within a few
        # hundred nodes, not after the whole 100,000-node budget.
        nodes = []
        psi_t = theta._psi_t_array
        monkeypatch.setattr(theta, "_psi_t_array",
                            lambda n, ts, us: nodes.append(len(ts)) or psi_t(n, ts, us))
        with pytest.raises(QuadratureFailureError, match="floor .* of resolved panels"):
            u_theta(4, 2.57530430523625 - 0.3921527485311234j, Tolerance(0.0, 1e-13))
        assert sum(nodes) < 1_000

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

    def test_peak_breakpoint_finds_narrow_mass(self):
        # At n = 99, z = 10.47 the integrand in u is a spike of width ~5e-4
        # at u* = 0.0955; a single first panel on (0, 1] sees none of it.
        res = u_theta(99, 10.465838347973358)
        assert res.value.real > 1e-201
        assert res.err_estimate < 1e-200

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
