"""Tests for the cross-method verification and benchmarking harness."""

import pytest

from cotlattice import (
    ALL_METHODS,
    SCHEMA_VERSION,
    GridSpec,
    Method,
    Tolerance,
    applicable_methods,
    bench_points,
    evaluate_method,
    phi,
    run_bench,
    run_verify,
    u_closed,
    u_theta,
    verify_points,
)
from cotlattice.verify import DEFAULT_BENCH_GRID, DEFAULT_VERIFY_GRID

TOL = Tolerance(abs_tol=1e-6, rel_tol=1e-6, max_terms=20_000_000)


class TestApplicableMethods:
    """Methods advertise themselves only where they are defined."""

    def test_odd_order(self):
        assert applicable_methods(3, 0.5) == (Method.DIRECT_SUM, Method.CLOSED_FORM)

    def test_power_of_two_real(self):
        ms = applicable_methods(4, 1.0)
        assert set(ms) == set(ALL_METHODS)

    def test_even_not_power_of_two(self):
        ms = applicable_methods(6, 0.5)
        assert Method.DYADIC_RECURSION not in ms
        assert Method.THETA_INTEGRAL in ms

    def test_theta_needs_positive_real_power(self):
        # (0.5+0.5i)^4 = -1/4: theta out; (0.5+0.5i)^8 = 1/16: theta in.
        assert Method.THETA_INTEGRAL not in applicable_methods(4, 0.5 + 0.5j)
        assert Method.THETA_INTEGRAL in applicable_methods(8, 0.5 + 0.5j)

    def test_theta_needs_representable_power(self):
        assert Method.THETA_INTEGRAL not in applicable_methods(1024, 0.5)

    def test_dyadic_depth_cap(self):
        assert Method.DYADIC_RECURSION in applicable_methods(1024, 0.9)
        assert Method.DYADIC_RECURSION not in applicable_methods(2048, 0.9)

    def test_respects_requested_subset(self):
        ms = applicable_methods(4, 1.0, (Method.CLOSED_FORM,))
        assert ms == (Method.CLOSED_FORM,)


class TestEvaluateMethod:
    """The dispatcher reaches each specialized evaluator."""

    def test_dyadic_routes_to_phi(self):
        via = evaluate_method(Method.DYADIC_RECURSION, 4, 0.5, TOL)
        assert via.value == phi(2, 0.5, TOL).value

    def test_theta_routes_to_half_order(self):
        via = evaluate_method(Method.THETA_INTEGRAL, 4, 0.7, TOL)
        assert via.value == u_theta(2, 0.7, TOL).value

    def test_closed(self):
        via = evaluate_method(Method.CLOSED_FORM, 3, 0.4, TOL)
        assert via.value == u_closed(3, 0.4, TOL).value


class TestVerifyPoints:
    """verify_points compares every applicable method pair."""

    def test_four_methods_six_pairs(self):
        rep = verify_points(((4, 1.0 + 0j),), ALL_METHODS, TOL)
        assert rep.summary.runs_total == 4
        assert rep.summary.pairs_total == 6
        assert rep.all_pass
        assert rep.schema_version == SCHEMA_VERSION

    def test_pair_bounds_hold(self):
        rep = verify_points(((2, 0.7 + 0j), (3, 0.45 + 0j)), ALL_METHODS, TOL)
        for pair in rep.pairs:
            assert pair.passed
            assert pair.delta <= pair.bound

    def test_domain_failures_are_recorded(self):
        rep = verify_points(((2, 0j),), ALL_METHODS, TOL)
        assert not rep.all_pass
        assert rep.summary.runs_failed == len(rep.runs)
        assert all(r.error_kind == "domain" for r in rep.runs)
        assert rep.summary.pairs_total == 0

    def test_tolerance_failures_are_recorded(self):
        # 20 terms are fewer than the 2 K0 + 1 = 33 of the starting cutoff.
        tiny = Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_terms=20)
        rep = verify_points(((1, 0.25 + 0j),), ALL_METHODS, tiny)
        kinds = {r.method: r.error_kind for r in rep.runs}
        assert kinds[Method.DIRECT_SUM] == "tolerance"
        assert kinds[Method.CLOSED_FORM] is None
        assert not rep.all_pass

    def test_deterministic(self):
        a = verify_points(((4, 1.0 + 0j), (2, 0.3 + 0j)), ALL_METHODS, TOL)
        b = verify_points(((4, 1.0 + 0j), (2, 0.3 + 0j)), ALL_METHODS, TOL)
        assert a == b

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            verify_points((), ALL_METHODS, TOL)

    def test_default_grid_passes(self):
        rep = run_verify(DEFAULT_VERIFY_GRID)
        assert rep.all_pass
        assert rep.summary.runs_total == 46
        assert rep.summary.pairs_total == 50
        assert rep.summary.pairs_passed == 50


class TestGridSpec:
    """GridSpec validates its axes up front."""

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            GridSpec(n_values=(), z_points=(0.5,), methods=ALL_METHODS, tol=TOL)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            GridSpec(n_values=(0,), z_points=(0.5,), methods=ALL_METHODS, tol=TOL)

    def test_rejects_non_method(self):
        with pytest.raises(TypeError):
            GridSpec(n_values=(1,), z_points=(0.5,), methods=("closed",), tol=TOL)


class TestBench:
    """bench_points measures work and wall time per method."""

    def test_rows_shape(self):
        rows = bench_points(((4, 1.0 + 0j),), ALL_METHODS, TOL)
        assert len(rows) == 4
        for row in rows:
            assert row.error is None
            assert row.wall_time_ns > 0
            assert row.work >= 1

    def test_errors_recorded_not_raised(self):
        rows = bench_points(((1, 1.0 + 0j),), ALL_METHODS, TOL)
        assert all(r.error is not None and r.error_kind == "domain" for r in rows)

    def test_default_grid_work_profile(self):
        rows = run_bench(DEFAULT_BENCH_GRID)
        assert all(r.error is None for r in rows)
        for n in (1, 3):
            direct = [r.work for r in rows
                      if r.n == n and r.method is Method.DIRECT_SUM]
            closed = [r.work for r in rows
                      if r.n == n and r.method is Method.CLOSED_FORM]
            assert direct == sorted(direct)
            assert direct[-1] > direct[0]
            assert all(w == n for w in closed)
