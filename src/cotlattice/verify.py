"""Cross-method verification harness.

``verify_points`` evaluates every applicable method at every point and
checks all pairwise agreements against the combined error bounds.
Because each route rests on different analysis (truncated summation,
the finite kernel form, the dyadic level, the Laplace integral),
pairwise agreement within stated bounds is strong evidence that both
the values and the error estimates are trustworthy; the report is the
machine-checkable artifact of that claim.

The CLI's ``bench`` table is its runs' work and wall time: the closed
form always spends exactly n kernel terms, while the direct sum's
cutoff grows with |z| at fixed tolerance.

Everything here is deterministic: grids are fixed tuples, evaluators
contain no randomness, and reports list entries in grid order.
"""

from __future__ import annotations

import time
from contextlib import suppress
from dataclasses import dataclass, field

from .closed import u_closed
from .direct import u_direct
from .dyadic import MAX_LEVEL, phi
from .errors import CotlatticeError, DomainError, error_kind
from .numerics import EPS
from .theta import laplace_power, u_theta
from .types import Method, Tolerance, require_finite_scalar, require_order

__all__ = [
    "GridSpec",
    "MethodRun",
    "PairCheck",
    "VerifySummary",
    "VerifyReport",
    "applicable_methods",
    "order_rule",
    "run_method",
    "verify_points",
    "DEFAULT_VERIFY_GRID",
    "DEFAULT_BENCH_GRID",
    "SCHEMA_VERSION",
]

#: Version tag of the output schema, printed on every CLI verify summary.
SCHEMA_VERSION = 1

ALL_METHODS = tuple(Method)


@dataclass(frozen=True)
class GridSpec:
    """A verification grid: orders x points x methods at one tolerance.

    Points are not pre-screened here; the harness itself runs every
    requested evaluation and records domain rejections as entry
    failures, so a grid containing an excluded point still produces a
    complete report.
    """

    n_values: tuple[int, ...]
    z_points: tuple[complex, ...]
    methods: tuple[Method, ...]
    tol: Tolerance


@dataclass(frozen=True)
class MethodRun:
    """One evaluator applied to one grid point, with its wall time.

    ``error`` is None on success; otherwise it holds the evaluator's
    message, ``error_kind`` classifies it ("domain", "tolerance", or
    "usage"), and value/err_estimate/work are zeroed placeholders.
    ``wall_time_ns`` does not take part in equality, so reports of the
    same inputs compare equal.
    """

    n: int
    z: complex
    method: Method
    value: complex
    err_estimate: float
    work: int
    wall_time_ns: int = field(compare=False)
    error: str | None = None
    error_kind: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class PairCheck:
    """Agreement test between two successful runs at the same point."""

    n: int
    z: complex
    method_a: Method
    method_b: Method
    delta: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class VerifySummary:
    runs_total: int
    runs_failed: int
    pairs_total: int
    pairs_passed: int
    worst: PairCheck | None


@dataclass(frozen=True)
class VerifyReport:
    """Full outcome of a verification run.

    ``all_pass`` is True iff every pairwise check passed and no
    requested evaluation failed: the single bit CI should gate on.
    """

    runs: tuple[MethodRun, ...]
    pairs: tuple[PairCheck, ...]
    summary: VerifySummary
    all_pass: bool


def order_rule(method: Method, n: int) -> str | None:
    """Why ``method`` cannot evaluate order n (the dyadic recursion needs
    n = 2^m with 1 <= m <= 10, the theta integral even n), or None."""
    if method is Method.DYADIC_RECURSION and not (n.bit_count() == 1 and 2 <= n <= 2**MAX_LEVEL):
        return ("domain: dyadic recursion applies to orders n = 2^m "
                f"with 1 <= m <= {MAX_LEVEL}, got n={n}")
    if method is Method.THETA_INTEGRAL and n % 2:
        return f"domain: theta integral applies to even orders, got n={n}"
    return None


def applicable_methods(n: int, z: complex,
                       requested: tuple[Method, ...] = ALL_METHODS) -> tuple[Method, ...]:
    """Requested methods that can in principle evaluate U_n(z).

    A method applies where :func:`order_rule` allows order n, the theta
    integral only where :func:`~cotlattice.theta.laplace_power`, the check
    u_theta itself makes, accepts z (z^n a usable double, Re z^n > 0).
    Poles and z = 0 are not filtered: they surface as recorded run errors.
    """
    require_order(n)
    z = require_finite_scalar(z)
    out = []
    for m in requested:
        if order_rule(m, n) is None:
            with suppress(DomainError):
                if m is Method.THETA_INTEGRAL:
                    laplace_power(n // 2, z)
                out.append(m)
    return tuple(out)


def _combined_bound(a: MethodRun, b: MethodRun) -> float:
    # Error estimates are upper bounds; the ulp-scale slack absorbs the
    # final rounding of the two values themselves.
    scale = max(1.0, abs(a.value), abs(b.value))
    return a.err_estimate + b.err_estimate + 4.0 * EPS * scale


def run_method(method: Method, n: int, z: complex, tol: Tolerance) -> MethodRun:
    """Evaluate one method at (n, z), timed; an evaluator error becomes
    the run's ``error`` instead of propagating."""
    t0 = time.perf_counter_ns()
    try:
        if method is Method.DIRECT_SUM:
            res = u_direct(n, z, tol)
        elif method is Method.CLOSED_FORM:
            res = u_closed(n, z, tol)
        elif method is Method.DYADIC_RECURSION:
            res = phi(n.bit_length() - 1, z, tol)
        else:
            res = u_theta(n // 2, z, tol)
    except (CotlatticeError, ValueError) as exc:
        return MethodRun(n=n, z=z, method=method, value=0j, err_estimate=0.0,
                         work=0, wall_time_ns=time.perf_counter_ns() - t0,
                         error=str(exc), error_kind=error_kind(exc))
    return MethodRun(n=n, z=z, method=method, value=res.value,
                     err_estimate=res.err_estimate, work=res.work,
                     wall_time_ns=time.perf_counter_ns() - t0)


def verify_points(points: tuple[tuple[int, complex], ...],
                  methods: tuple[Method, ...],
                  tol: Tolerance) -> VerifyReport:
    """Evaluate explicit (n, z) pairs and cross-check method pairs.

    Never raises on evaluator failures: domain rejections, tolerance
    shortfalls, and recursion pole hits become MethodRun entries with
    the error message preserved, and count against ``all_pass``.
    Entries appear in input order (point-major, then method), so
    identical inputs produce identical reports.
    """
    runs: list[MethodRun] = []
    pairs: list[PairCheck] = []
    points = tuple((require_order(n), require_finite_scalar(z)) for n, z in points)
    if not points:
        raise ValueError("verify needs at least one (n, z) point")
    for n, z in points:
        point_runs = [run_method(m, n, z, tol) for m in applicable_methods(n, z, methods)]
        good = [r for r in point_runs if r.ok]
        for i, ra in enumerate(good):
            for rb in good[i + 1:]:
                delta = abs(ra.value - rb.value)
                bound = _combined_bound(ra, rb)
                pairs.append(PairCheck(n=n, z=z, method_a=ra.method,
                                       method_b=rb.method, delta=delta,
                                       bound=bound, passed=delta <= bound))
        runs.extend(point_runs)
    failed = sum(1 for r in runs if not r.ok)
    passed = sum(1 for p in pairs if p.passed)
    worst = max(pairs, key=lambda p: p.delta, default=None)
    summary = VerifySummary(
        runs_total=len(runs), runs_failed=failed, pairs_total=len(pairs),
        pairs_passed=passed, worst=worst,
    )
    return VerifyReport(runs=tuple(runs), pairs=tuple(pairs), summary=summary,
                        all_pass=(failed == 0 and passed == len(pairs)))


#: Stock verification grid: one odd order, one power of two, one
#: non-dyadic odd, one dyadic, at points inside and outside the unit
#: disk plus a complex point; at its tolerance every direct sum stops
#: after its first block of 33 terms, the corrected tail doing the rest.
DEFAULT_VERIFY_GRID = GridSpec(
    n_values=(1, 2, 3, 4),
    z_points=(0.3, 0.7, 1.5, 0.5 + 0.5j),
    methods=ALL_METHODS,
    tol=Tolerance(abs_tol=1e-6, rel_tol=1e-6, max_terms=20_000_000,
                  max_nodes=100_000),
)

#: Stock bench grid: odd orders over a geometric |z| ladder, where the
#: direct cutoff visibly tracks |z| (the paired odd tail carries a
#: |z|^n mass factor).  Closed-form rows cost n terms at every point.
#: Half-integer points: every nonzero integer z is a pole of odd orders.
DEFAULT_BENCH_GRID = GridSpec(
    n_values=(1, 3),
    z_points=(0.5, 2.5, 8.5, 32.5, 128.5),
    methods=(Method.DIRECT_SUM, Method.CLOSED_FORM),
    tol=Tolerance(abs_tol=1e-4, rel_tol=0.0, max_terms=20_000_000,
                  max_nodes=100_000),
)
