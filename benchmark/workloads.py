"""Seeded inputs for the three benchmark workloads and the calls they make.

Every workload is a fixed list of ``Op`` records drawn from
``random.Random(f"{workload}:{seed}")``, so one seed always gives one list.
Continuous inputs are stratified (one draw per equal-probability stratum,
strata shuffled) so that the mix of orders, magnitudes and real/complex
points, and with it the cost of a pass, varies little between seeds.

* ``closed-eval``: ``u_closed(n, z)``, plus ``phi(m, z)`` when n = 2^m.
  Orders are log-uniform over 1..1024, |z| log-uniform over 1e-3..1e3
  within the range where |z|^n stays a normal double, half real and half
  complex.  A fixed 2% of points have |z| in 1e-9..1e-7.
* ``series-tail``: ``u_direct`` at n = 1..4, ``product_ratio`` at n = 1..4,
  ``zeta_even`` and ``unit_circle_parts``.  The slow n <= 2 direct sums run
  at absolute targets from 1e-6 to 2.5e-7 on |z| in [0.27, 0.52], where
  the doubling cutoff is a fixed power of two for each target.
* ``crosscheck``: one ``cotlattice verify`` run per grid point, in process,
  on a one-point grid file.  Orders are mostly even, |z| in [0.2, 3], and
  complex points satisfy Re z^n > 0.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("closed-eval", "series-tail", "crosscheck")

CLOSED_EVAL_OPS = 2000
TINY_SHARE = 0.02
MAX_ORDER = 1024
#: |z|^n is kept within 10^(+-LOG10_RANGE), well inside the double range.
LOG10_RANGE = 280.0

#: Absolute targets of the slow n <= 2 direct sums.
SLOW_TARGETS = (1e-6, 5e-7, 2.5e-7)
SLOW_ROUNDS = 2
SLOW_MAX_TERMS = 100_000_000
#: product_ratio calls at n = 1 and at n = 2, each a budget-capped 1e7-term
#: series.  With the slow direct sums these are the 16 slowest ops, so the
#: tail op (ten slower ops beyond it) is a slow direct sum.
PRODUCT_SLOW = 2

CROSS_EVEN = (2, 4, 6, 8, 12, 16, 32, 64)
CROSS_ODD = (1, 3, 5, 7)
CROSS_PER_EVEN = 15
CROSS_PER_ODD = 8


@dataclass(frozen=True)
class Op:
    """One benchmark operation.  Unused fields keep their defaults."""

    kind: str  # closed | direct | product | zeta | circle | verify
    n: int
    z: complex = 0j
    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0
    abs_tol: float = 0.0  # direct only; rel_tol is 0 there
    grid: str = ""  # verify only: path of the one-point grid file


def dyadic_level(n: int) -> int:
    """m with n = 2^m and 1 <= m <= 10, else 0."""
    m = n.bit_length() - 1
    return m if n == 1 << m and 1 <= m <= 10 else 0


def _strata(rng: random.Random, k: int) -> list[float]:
    perm = list(range(k))
    rng.shuffle(perm)
    return [(p + rng.random()) / k for p in perm]


def _log_order(u: float, top: int) -> int:
    """Order log-uniform over 1..top: P(n) = log((n+1)/n) / log(top+1)."""
    return min(top, int(math.exp(u * math.log(top + 1.0))))


def _point(r: float, real: bool, u_arg: float) -> complex:
    if real:
        return complex(r if u_arg < 0.5 else -r, 0.0)
    return cmath.rect(r, math.pi * (2.0 * u_arg - 1.0))


def closed_eval(seed: int) -> list[Op]:
    rng = random.Random(f"closed-eval:{seed}")
    count = CLOSED_EVAL_OPS
    n_tiny = round(TINY_SHARE * count)
    u_n, u_r, u_arg = (_strata(rng, count) for _ in range(3))
    real = [i % 2 == 0 for i in range(count)]
    rng.shuffle(real)
    ops = []
    for i in range(count):
        if i < n_tiny:
            lg = -9.0 + 2.0 * u_r[i]
            n = _log_order(u_n[i], min(MAX_ORDER, int(LOG10_RANGE / -lg)))
        else:
            n = _log_order(u_n[i], MAX_ORDER)
            lo = max(-3.0, -LOG10_RANGE / n)
            hi = min(3.0, LOG10_RANGE / n)
            lg = lo + (hi - lo) * u_r[i]
        ops.append(Op("closed", n, _point(10.0 ** lg, real[i], u_arg[i])))
    rng.shuffle(ops)
    return ops


def series_tail(seed: int) -> list[Op]:
    rng = random.Random(f"series-tail:{seed}")
    ops = []

    def points(k, lo, hi):
        # log-uniform |z| in [lo, hi], alternately real and complex
        return [_point(lo * (hi / lo) ** u, j % 2 == 0, rng.random())
                for j, u in enumerate(_strata(rng, k))]

    slow = len(SLOW_TARGETS) * SLOW_ROUNDS
    for n in (1, 2):
        zs = points(slow, 0.27, 0.52)
        for j, z in enumerate(zs):
            ops.append(Op("direct", n, z, abs_tol=SLOW_TARGETS[j % len(SLOW_TARGETS)]))
    for n in (3, 4):
        ops += [Op("direct", n, z, abs_tol=1e-10) for z in points(120, 0.2, 3.0)]
    for n, k in ((1, PRODUCT_SLOW), (2, PRODUCT_SLOW), (3, 80), (4, 80)):
        for u, v in zip(_strata(rng, k), _strata(rng, k)):
            x, y = sorted((0.02 + 0.96 * u, 0.02 + 0.96 * v))
            ops.append(Op("product", n, x=x, y=y))
    ops += [Op("zeta", 1 + int(8 * u)) for u in _strata(rng, 120)]
    ops += [Op("circle", 1 + j % 4, theta=2.0 * math.pi * u)
            for j, u in enumerate(_strata(rng, 128))]
    rng.shuffle(ops)
    return ops


def crosscheck(seed: int, grid_dir: Path) -> list[Op]:
    rng = random.Random(f"crosscheck:{seed}")
    points = []
    for orders, per in ((CROSS_EVEN, CROSS_PER_EVEN), (CROSS_ODD, CROSS_PER_ODD)):
        for n in orders:
            for u, v in zip(_strata(rng, per), _strata(rng, per)):
                r = 0.2 * 15.0 ** u
                # alternate real and complex along |z|, so that every seed
                # has the same mix at each magnitude (memory use and cost
                # depend on both)
                if int(u * per) % 2 == 0:
                    z = complex(r if v < 0.5 else -r, 0.0)
                else:
                    # arg chosen so that n * arg lies within 0.4 pi of a
                    # multiple of 2 pi, which keeps Re z^n > 0
                    k = rng.randrange(n)
                    z = cmath.rect(r, (2.0 * math.pi * k + 0.8 * math.pi * (v - 0.5)) / n)
                points.append((n, z))
    rng.shuffle(points)
    ops = []
    for i, (n, z) in enumerate(points):
        path = grid_dir / f"point{i:03d}.grid"
        path.write_text(f"n {n} z {format_complex(z)}\n")
        ops.append(Op("verify", n, z, grid=str(path)))
    return ops


def generate(workload: str, seed: int, grid_dir: Path) -> list[Op]:
    if workload == "closed-eval":
        return closed_eval(seed)
    if workload == "series-tail":
        return series_tail(seed)
    if workload == "crosscheck":
        return crosscheck(seed, grid_dir)
    raise ValueError(f"unknown workload {workload!r}")


def format_complex(z: complex) -> str:
    """The grid-file syntax 'a', 'a+bi' or 'a-bi', exact to the last bit."""
    if z.imag == 0.0:
        return "%.17g" % z.real
    return "%.17g%+.17gi" % (z.real, z.imag)


def make_call(op: Op, pkg, cli):
    """Zero-argument callable running ``op``.

    Package functions are looked up at call time, so a tracer that patches
    the package namespace sees every call.  The callable returns a tuple of
    results: ``EvalResult`` objects, the ``(re, im)`` pair of
    ``unit_circle_parts``, or ``(exit_code, output)`` for ``verify``.
    """
    n, z = op.n, op.z
    if op.kind == "closed":
        m = dyadic_level(n)
        if m:
            return lambda: (pkg.u_closed(n, z), pkg.phi(m, z))
        return lambda: (pkg.u_closed(n, z),)
    if op.kind == "direct":
        tol = tolerance_of(op, pkg)
        return lambda: (pkg.u_direct(n, z, tol),)
    if op.kind == "product":
        query = pkg.ProductQuery(n=n, x=op.x, y=op.y)
        return lambda: (pkg.product_ratio(query),)
    if op.kind == "zeta":
        return lambda: (pkg.zeta_even(n),)
    if op.kind == "circle":
        theta = op.theta
        return lambda: (pkg.unit_circle_parts(n, theta),)
    if op.kind == "verify":
        argv = ["verify", "--grid", op.grid, "--format", "json-lines"]

        def verify():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return (code, buf.getvalue())

        return verify
    raise ValueError(f"unknown op kind {op.kind!r}")


def tolerance_of(op: Op, pkg):
    """The tolerance the op's calls run under."""
    if op.kind == "direct":
        return pkg.Tolerance(abs_tol=op.abs_tol, rel_tol=0.0, max_terms=SLOW_MAX_TERMS)
    if op.kind == "verify":
        return pkg.verify.DEFAULT_VERIFY_GRID.tol
    return pkg.DEFAULT_TOLERANCE
