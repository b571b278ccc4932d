"""Tests for the cross-method verification harness."""

import cmath
import dataclasses
import math
import pickle
import random

import pytest

from cotlattice import (
    ALL_METHODS,
    DomainError,
    Method,
    ToleranceError,
    Tolerance,
    applicable_methods,
    phi,
    u_closed,
    u_theta,
    verify_points,
)
from cotlattice.verify import (DEFAULT_BENCH_GRID, DEFAULT_VERIFY_GRID, MethodRun, PairCheck,
                               run_method)

TOL = Tolerance(abs_tol=1e-6, rel_tol=1e-6, max_terms=20_000_000)


def run_grid(grid):
    """verify_points over a stock grid's orders x points."""
    points = tuple((n, z) for n in grid.n_values for z in grid.z_points)
    return verify_points(points, grid.methods, grid.tol)


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

    def test_theta_offered_exactly_where_u_theta_accepts(self):
        # A one-node budget stops u_theta before its first round, after the
        # domain checks, which are all this compares.
        tol = Tolerance(max_nodes=1)
        rng = random.Random(2024)
        verdicts = set()
        for _ in range(600):
            m = round(math.exp(rng.uniform(0.0, math.log(550))))
            r = math.exp(rng.uniform(math.log(1e-12), math.log(1e4)))
            # (2j + 1)/(4m) puts z^(2m) on the imaginary axis, up to rounding
            edge = (2 * rng.randrange(2 * m) + 1) / (4 * m)
            ray = rng.choice((0.0, 0.5, 1.0, rng.uniform(0.0, 2.0), edge))
            z = r * cmath.exp(1j * math.pi * ray)
            offered = Method.THETA_INTEGRAL in applicable_methods(2 * m, z)
            accepted = True
            try:
                u_theta(m, z, tol)
            except DomainError:
                accepted = False
            except ToleranceError:
                pass  # past the domain checks
            assert offered is accepted, (2 * m, z)
            verdicts.add(offered)
        assert verdicts == {True, False}

    def test_dyadic_depth_cap(self):
        assert Method.DYADIC_RECURSION in applicable_methods(1024, 0.9)
        assert Method.DYADIC_RECURSION not in applicable_methods(2048, 0.9)

    def test_respects_requested_subset(self):
        ms = applicable_methods(4, 1.0, (Method.CLOSED_FORM,))
        assert ms == (Method.CLOSED_FORM,)


class TestEvaluateMethod:
    """run_method dispatches to each specialized evaluator."""

    def test_dyadic_routes_to_phi(self):
        via = run_method(Method.DYADIC_RECURSION, 4, 0.5, TOL)
        assert via.value == phi(2, 0.5, TOL).value

    def test_theta_routes_to_half_order(self):
        via = run_method(Method.THETA_INTEGRAL, 4, 0.7, TOL)
        assert via.value == u_theta(2, 0.7, TOL).value

    def test_closed(self):
        via = run_method(Method.CLOSED_FORM, 3, 0.4, TOL)
        assert via.value == u_closed(3, 0.4, TOL).value


class TestVerifyPoints:
    """verify_points compares every applicable method pair."""

    def test_four_methods_six_pairs(self):
        rep = verify_points(((4, 1.0 + 0j),), ALL_METHODS, TOL)
        assert rep.summary.runs_total == 4
        assert rep.summary.pairs_total == 6
        assert rep.all_pass

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
        rep = run_grid(DEFAULT_VERIFY_GRID)
        assert rep.all_pass
        assert rep.summary.runs_total == 46
        assert rep.summary.pairs_total == 50
        assert rep.summary.pairs_passed == 50


class TestRecords:
    """MethodRun and PairCheck, built by a hand-written __init__, keep their
    dataclass behaviour: equality without wall_time_ns, hashing, replace,
    pickling and frozen fields."""

    def test_method_run(self):
        run = run_method(Method.CLOSED_FORM, 3, 0.4, TOL)
        twin = MethodRun(n=3, z=0.4, method=Method.CLOSED_FORM, value=run.value,
                         err_estimate=run.err_estimate, work=run.work,
                         wall_time_ns=run.wall_time_ns + 1)
        assert twin == run and hash(twin) == hash(run)
        assert (twin.error, twin.error_kind, twin.ok) == (None, None, True)
        assert twin != dataclasses.replace(run, work=run.work + 1)
        assert dataclasses.replace(run, wall_time_ns=0).wall_time_ns == 0
        failed = run_method(Method.THETA_INTEGRAL, 2, 1j, TOL)  # Re z^2 < 0
        assert (failed.ok, failed.error_kind) == (False, "domain")
        for r in (run, failed):
            assert pickle.loads(pickle.dumps(r)) == r
            with pytest.raises(dataclasses.FrozenInstanceError):
                r.n = 5

    def test_pair_check(self):
        pair = verify_points(((4, 1.0 + 0j),), ALL_METHODS, TOL).pairs[0]
        fields = dataclasses.asdict(pair)
        assert PairCheck(**fields) == pair and hash(PairCheck(**fields)) == hash(pair)
        assert dataclasses.replace(pair, passed=not pair.passed) != pair
        assert pickle.loads(pickle.dumps(pair)) == pair
        assert repr(pair).startswith("PairCheck(n=4, z=(1+0j), method_a=")
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.delta = 0.0


class TestBench:
    """verify's runs carry the work and wall time the bench table shows."""

    def test_rows_shape(self):
        rows = verify_points(((4, 1.0 + 0j),), ALL_METHODS, TOL).runs
        assert len(rows) == 4
        for row in rows:
            assert row.error is None
            assert row.wall_time_ns > 0
            assert row.work >= 1

    def test_errors_recorded_not_raised(self):
        rows = verify_points(((1, 1.0 + 0j),), ALL_METHODS, TOL).runs
        assert all(r.error is not None and r.error_kind == "domain" for r in rows)

    def test_default_grid_work_profile(self):
        rows = run_grid(DEFAULT_BENCH_GRID).runs
        assert all(r.error is None for r in rows)
        for n in (1, 3):
            direct = [r.work for r in rows
                      if r.n == n and r.method is Method.DIRECT_SUM]
            closed = [r.work for r in rows
                      if r.n == n and r.method is Method.CLOSED_FORM]
            assert direct == sorted(direct)
            assert direct[-1] > direct[0]
            assert all(w == n for w in closed)
