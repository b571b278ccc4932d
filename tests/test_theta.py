"""Tests for the Kronrod quadrature core and the theta-integral route."""

import math

import numpy as np
import pytest

from cotlattice import (
    DomainError,
    QuadratureFailureError,
    Method,
    ThetaArg,
    Tolerance,
    psi,
    u_closed,
    u_theta,
)
from cotlattice.cli import main
from cotlattice.numerics import EPS
from cotlattice.quadrature import gk15_panel, integrate_adaptive
from cotlattice.theta import _psi_t_array

PI_COTH_PI = 3.153348094937162  # pi * coth(pi) = U_2(1)


class TestGK15Panel:
    """One Kronrod panel integrates low-degree polynomials exactly."""

    def test_polynomial_exactness(self):
        # The 15-point Kronrod extension of G7 is exact through degree 22.
        for deg in (0, 5, 13, 22):
            value, err, _ = gk15_panel(lambda x, d=deg: x**d, 0.0, 1.0)
            exact = 1.0 / (deg + 1)
            assert abs(value - exact) < 1e-14 * exact + 1e-16

    def test_error_model_covers_smooth(self):
        value, err, _ = gk15_panel(np.sin, 0.0, 1.0)
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


class TestThetaArg:
    """ThetaArg validates the nome and keeps q and t consistent."""

    def test_accepts_interior(self):
        arg = ThetaArg.from_q(0.25)
        assert abs(arg.q * math.exp(arg.t) - 1.0) < 1e-15

    def test_from_t(self):
        arg = ThetaArg.from_t(2.0)
        assert abs(arg.q - math.exp(-2.0)) < 1e-17

    def test_rejects_boundary_and_outside(self):
        for q in (0.0, 1.0, -0.1, 1.5, float("nan")):
            with pytest.raises(DomainError):
                ThetaArg.from_q(q)


class TestPsi:
    """Psi_n(q) = 1 + 2 sum q^(k^(2n)) with a dominated tail."""

    def test_frozen_small_nome(self):
        # 1 + 2(0.1 + 0.1^4 + 0.1^9 + ...) to double precision.
        res = psi(1, ThetaArg.from_q(0.1))
        assert abs(res.value.real - 1.2002000019999999) < 1e-15
        assert res.err_estimate < 1e-14

    def test_frozen_sparse_exponents(self):
        # n=2: exponents k^4, so 1 + 2(0.5 + 0.5^16 + ...).
        res = psi(2, ThetaArg.from_q(0.5))
        assert res.value.real == 2.000030517578125

    def test_matches_brute_force(self):
        for n, q in ((1, 0.7), (1, 0.3), (2, 0.9), (3, 0.6)):
            brute = 1.0 + 2.0 * math.fsum(
                q ** (k ** (2 * n)) for k in range(1, 60))
            res = psi(n, ThetaArg.from_q(q))
            assert abs(res.value.real - brute) <= res.err_estimate

    def test_work_is_odd_term_count(self):
        res = psi(1, ThetaArg.from_q(0.1))
        assert res.work % 2 == 1

    def test_overflowing_power_is_a_zero_term(self, capsys, monkeypatch, tmp_path):
        # 3^912 leaves the double range: that term and the tail are 0.
        q = 0.884192827198217
        res = psi(456, ThetaArg.from_q(q))
        assert abs(res.value.real - (1.0 + 2.0 * q)) <= res.err_estimate
        monkeypatch.delenv("COTLATTICE_CONFIG", raising=False)
        monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path))
        assert main(["theta", "-n", "456", "-q", repr(q)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1


def kronrod_nodes(a, b):
    """The 15 abscissae one Kronrod panel on [a, b] evaluates."""
    seen = []
    gk15_panel(lambda xs: seen.append(xs) or np.zeros_like(xs), a, b)
    return seen[0]


#: Panels [0, 2^-j] as the adaptive quadrature produces them next to t = 0,
#: where the smallest node needs far more theta terms than the rest.
T_PANELS = [kronrod_nodes(0.0, 2.0 ** -j) for j in range(21)]


class TestPsiTArray:
    """The vectorized theta series truncates each node at its own cut."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 32])
    def test_matches_scalar_psi(self, n):
        tol = Tolerance(abs_tol=0.0, rel_tol=1e-16)
        for ts in T_PANELS:
            for t, v in zip(ts, _psi_t_array(n, ts)):
                ref = psi(n, ThetaArg.from_t(t), tol)
                # psi's bound plus two ulps for the array's own rounding
                assert abs(v - ref.value.real) <= ref.err_estimate + 2 * EPS * v, (n, t)

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

    def test_too_many_terms_raises(self):
        # sqrt(45 / 1e-13) ~ 2.1e7 terms at the smallest node, over 1e7
        with pytest.raises(QuadratureFailureError):
            _psi_t_array(1, np.array([1e-13, 1.0]))


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

    def test_unrepresentable_power_rejected(self):
        # 0.5^1024 is subnormal; its reciprocal overflows.
        with pytest.raises(DomainError):
            u_theta(512, 0.5)
