"""Cross-method verification and benchmarking harness.

``run_verify`` evaluates every applicable method at every grid point
and checks all pairwise agreements against the combined error bounds.
Because each route rests on different analysis (truncated summation,
the finite kernel form, the halving recursion, the Laplace integral),
pairwise agreement within stated bounds is strong evidence that both
the values and the error estimates are trustworthy; the report is the
machine-checkable artifact of that claim.

``run_bench`` times the same evaluations and reports the work counters
next to wall time, making the cost structure visible: the closed form
always spends exactly n kernel terms, while the direct sum's cutoff
grows with |z| at fixed tolerance.

Everything here is deterministic: grids are fixed tuples, evaluators
contain no randomness, and reports list entries in grid order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .closed import u_closed
from .direct import u_direct
from .dyadic import MAX_LEVEL, phi
from .errors import CotlatticeError, DomainError, ToleranceError
from .numerics import EPS, ipow
from .theta import u_theta
from .types import (
    EvalResult,
    Method,
    Tolerance,
    require_finite_scalar,
    require_order,
)

__all__ = [
    "GridSpec",
    "MethodRun",
    "PairCheck",
    "VerifySummary",
    "VerifyReport",
    "applicable_methods",
    "evaluate_method",
    "run_verify",
    "verify_points",
    "run_bench",
    "bench_points",
    "DEFAULT_VERIFY_GRID",
    "DEFAULT_BENCH_GRID",
    "SCHEMA_VERSION",
]

#: Version tag carried by every report for stable CI diffing.
SCHEMA_VERSION = 1

ALL_METHODS = (
    Method.DIRECT_SUM,
    Method.CLOSED_FORM,
    Method.DYADIC_RECURSION,
    Method.THETA_INTEGRAL,
)


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

    def __post_init__(self) -> None:
        ns = tuple(require_order(n) for n in self.n_values)
        zs = tuple(require_finite_scalar(z) for z in self.z_points)
        ms = tuple(self.methods)
        if not ns or not zs or not ms:
            raise ValueError("grid needs at least one order, point, and method")
        for m in ms:
            if not isinstance(m, Method):
                raise TypeError(f"methods must be Method values, got {m!r}")
        if not isinstance(self.tol, Tolerance):
            raise TypeError(f"tol must be a Tolerance, got {self.tol!r}")
        object.__setattr__(self, "n_values", ns)
        object.__setattr__(self, "z_points", zs)
        object.__setattr__(self, "methods", ms)


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
    max_delta: float
    worst: PairCheck | None


@dataclass(frozen=True)
class VerifyReport:
    """Full outcome of a verification run.

    ``points`` echoes the evaluated (n, z) pairs in order.  ``all_pass``
    is True iff every pairwise check passed and no requested evaluation
    failed; it is the single bit CI should gate on.  ``schema_version``
    pins the field layout for diffing.
    """

    points: tuple[tuple[int, complex], ...]
    methods: tuple[Method, ...]
    tol: Tolerance
    runs: tuple[MethodRun, ...]
    pairs: tuple[PairCheck, ...]
    summary: VerifySummary
    all_pass: bool
    schema_version: int = field(default=SCHEMA_VERSION)


def applicable_methods(n: int, z: complex,
                       requested: tuple[Method, ...] = ALL_METHODS) -> tuple[Method, ...]:
    """Requested methods that can in principle evaluate U_n(z).

    Direct summation and the closed form apply everywhere; the dyadic
    recursion needs n = 2^m with 1 <= m <= 10; the theta integral needs
    even n with a representable z^n of positive real part.  Domain
    failures at specific points (poles, z = 0) are not filtered here --
    they surface as recorded run errors.
    """
    require_order(n)
    z = require_finite_scalar(z)
    out = []
    for m in requested:
        if m in (Method.DIRECT_SUM, Method.CLOSED_FORM):
            out.append(m)
        elif m is Method.DYADIC_RECURSION:
            level = n.bit_length() - 1
            if n == 2**level and 1 <= level <= MAX_LEVEL:
                out.append(m)
        elif m is Method.THETA_INTEGRAL:
            if n % 2 == 0:
                s = ipow(z, n)
                # Both the Laplace exponent z^n and the leading value
                # scale 1/z^n must be representable.
                if (math.isfinite(s.real) and math.isfinite(s.imag)
                        and s.real > 0.0 and math.isfinite(1.0 / abs(s))):
                    out.append(m)
    return tuple(out)


def evaluate_method(method: Method, n: int, z: complex, tol: Tolerance) -> EvalResult:
    """Dispatch one evaluator; caller guarantees applicability."""
    if method is Method.DIRECT_SUM:
        return u_direct(n, z, tol)
    if method is Method.CLOSED_FORM:
        return u_closed(n, z, tol)
    if method is Method.DYADIC_RECURSION:
        return phi(n.bit_length() - 1, z, tol)
    if method is Method.THETA_INTEGRAL:
        return u_theta(n // 2, z, tol)
    raise TypeError(f"unknown method {method!r}")


def _combined_bound(a: MethodRun, b: MethodRun) -> float:
    # Error estimates are upper bounds; the ulp-scale slack absorbs the
    # final rounding of the two values themselves.
    scale = max(1.0, abs(a.value), abs(b.value))
    return a.err_estimate + b.err_estimate + 4.0 * EPS * scale


def _error_kind(exc: Exception) -> str:
    if isinstance(exc, DomainError):
        return "domain"
    if isinstance(exc, ToleranceError):
        return "tolerance"
    return "usage"


def _run(method: Method, n: int, z: complex, tol: Tolerance) -> MethodRun:
    t0 = time.perf_counter_ns()
    try:
        res = evaluate_method(method, n, z, tol)
    except (CotlatticeError, ValueError) as exc:
        return MethodRun(n=n, z=z, method=method, value=0j, err_estimate=0.0,
                         work=0, wall_time_ns=time.perf_counter_ns() - t0,
                         error=str(exc), error_kind=_error_kind(exc))
    return MethodRun(n=n, z=z, method=method, value=res.value,
                     err_estimate=res.err_estimate, work=res.work,
                     wall_time_ns=time.perf_counter_ns() - t0)


def _points(points: tuple[tuple[int, complex], ...],
            what: str) -> tuple[tuple[int, complex], ...]:
    pts = tuple((require_order(n), require_finite_scalar(z)) for n, z in points)
    if not pts:
        raise ValueError(f"{what} needs at least one (n, z) point")
    return pts


def _expand(spec: GridSpec) -> tuple[tuple[int, complex], ...]:
    return tuple((n, z) for n in spec.n_values for z in spec.z_points)


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
    pts = _points(points, "verify")
    runs: list[MethodRun] = []
    pairs: list[PairCheck] = []
    for n, z in pts:
        point_runs = [_run(m, n, z, tol) for m in applicable_methods(n, z, methods)]
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
        pairs_passed=passed, max_delta=worst.delta if worst else 0.0, worst=worst,
    )
    return VerifyReport(points=pts, methods=tuple(methods), tol=tol,
                        runs=tuple(runs), pairs=tuple(pairs), summary=summary,
                        all_pass=(failed == 0 and passed == len(pairs)))


def run_verify(spec: GridSpec) -> VerifyReport:
    """Cross-check every applicable method pair on the grid's cross
    product of orders and points.  See :func:`verify_points`."""
    return verify_points(_expand(spec), spec.methods, spec.tol)


def bench_points(points: tuple[tuple[int, complex], ...],
                 methods: tuple[Method, ...],
                 tol: Tolerance) -> tuple[MethodRun, ...]:
    """Time every applicable evaluation at explicit (n, z) pairs.

    The interesting columns are ``work`` and ``wall_time_ns``: closed
    form rows show work == n independent of z, direct rows show the
    cutoff growing with |z| at fixed tolerance.  Failures are recorded,
    not raised, so a bench over a mixed grid always completes.
    """
    return tuple(_run(m, n, z, tol) for n, z in _points(points, "bench")
                 for m in applicable_methods(n, z, methods))


def run_bench(spec: GridSpec) -> tuple[MethodRun, ...]:
    """Time every applicable evaluation on the grid's cross product.
    See :func:`bench_points`."""
    return bench_points(_expand(spec), spec.methods, spec.tol)


#: Stock verification grid: one odd order, one power of two, one
#: non-dyadic odd, one dyadic, at points inside and outside the unit
#: disk plus a complex point; tolerance loose enough that the n = 1, 2
#: direct sums finish in a few million terms.
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
