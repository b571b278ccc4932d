"""Closed-form evaluation of U_n(z) by a finite cotangent kernel.

Partial fractions against the classical cotangent expansion collapse the
lattice sum to one term per n-th root rho_k = e^(i theta_k) of -1,
theta_k = (2k - 1) pi / n:

    U_n(z) = pi / (n z^(n-1)) * sum_{k=1}^{n} rho_k cot(pi z rho_k).

For n = 1 and n = 2 this is pi cot(pi z) and (pi / z) coth(pi z).  The
terms of conjugate roots rho, conj(rho) sum to rho cot(u) + conj(rho cot(u')),
u = pi z rho, u' = pi conj(z) rho; for even n the roots -rho, -conj(rho)
repeat them (cot is odd).  So each ray is evaluated as the mean

    f_k = [rho cot(u) + conj(rho cot(u'))] / 2 = Re(rho cot u) for real z,

over the ceil(n/2) rays with theta in (0, pi] for odd n and the (n + 2) // 4
with theta in (0, pi/2] for even n, each weighted by the number of roots it
stands for (:func:`kernel_table`, a table of numpy columns, and
:func:`kernel_rows`, its rows as Python numbers).  tan saturates to +-i at
large |Im u|, so no term needs a rescale, and near z = 0, where tan u ~ u,
no term underflows.

Below ``_CROSSOVER`` rays a scalar loop sums the f_k by ``cmath.tan`` in
angle order; from there up one numpy pass sums them pairwise
(:func:`_kernel_pass`).  Both compute the same terms and raise
KernelSingularError by the same test (:func:`_kernel_loop`).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NoReturn

import numpy as np

from .direct import lattice_series
from .errors import DomainError, KernelSingularError, ToleranceError
from .numerics import EPS
from .types import (
    DEFAULT_TOLERANCE,
    EvalResult,
    Method,
    Tolerance,
    power_in_range,
    require_order,
    validate_domain,
)

__all__ = [
    "kernel_rows",
    "kernel_table",
    "u_closed",
    "unit_circle_parts",
]

#: T of the one singularity test, |tan u tan u'| < T min(1, |pi z|)^2 (:func:`_kernel_loop`).
_SINGULAR = 1e-12
#: Ray count from which u_closed runs the kernel as one numpy pass: below it numpy's
#: fixed cost outweighs the scalar loop (break-even ~15 rays complex z, ~20 real z).
_CROSSOVER = 18
#: |Im u| from which cot u is +-i within 2 e^(-40) / (1 - e^(-40)) < 8.5e-18.
_FLAT = 20.0


@lru_cache(maxsize=None)
def kernel_table(n: int) -> tuple[np.ndarray, ...]:
    """The distinct root rays theta = (2k - 1) pi / n of order n,
    angle-increasing, as read-only columns (a, b, mult, ka, kb): a = cos
    theta, b = sin theta >= 0, mult, how many of the n roots the ray
    stands for, and the argument-error constants ka, kb.  ceil(n/2) rays
    for odd n, (n + 2) // 4 for even n.

    The kernel term is even in b and in a.  So a ray stands for its
    conjugate at -theta, and for even n also for its mirror images at
    +-(pi - theta), which are roots too (for odd n they are roots of
    +z^n instead).  Odd n keeps the rays with theta <= pi: multiplicity
    2, except the axis ray theta = pi (1).  Even n keeps those with
    theta <= pi / 2: multiplicity 4, except the ray theta = pi / 2 of
    n = 2 mod 4 (2).  The multiplicities sum to n.  Exact values are
    snapped at the axis rays: (a, b) = (-1, 0) when 2k - 1 = n, (0, 1)
    when (2k - 1)/n = 1/2.

    a and b are the .real and .imag views of one complex column rho = a +
    ib, their ``.base``, which the vector pass reads.

    For a double w = pi t, ka |w| eps and kb |w| eps bound the errors of
    the computed arguments w a and w b, as the closed product's bar
    charges them: 1.25 eps relative from pi and the two products, and
    off the snapped rays an ulp of a and of b plus their shift by the
    1.5 eps rounding of theta.
    """
    require_order(n)
    full = 2 if n % 2 else 4
    rays = []
    for num in range(1, (n if n % 2 else n // 2) + 1, 2):
        theta = num * math.pi / n
        if num == n:
            rays.append((-1.0 + 0j, 1, 1.25, 0.0))
        elif 2 * num == n:
            rays.append((1j, 2, 0.0, 1.25))
        else:
            a, b = math.cos(theta), math.sin(theta)
            ka = 1.25 * abs(a) + (abs(a) + 1.5 * theta * b)
            kb = 1.25 * b + (b + 1.5 * theta * abs(a))
            rays.append((complex(a, b), full, ka, kb))
    rho, *columns = (np.array(col) for col in zip(*rays))
    for col in (rho, *columns):
        col.flags.writeable = False
    return (rho.real, rho.imag, *columns)


@lru_cache(maxsize=None)
def kernel_rows(n: int) -> tuple[tuple[float, float, int, float, float], ...]:
    """The (a, b, mult, ka, kb) rows of :func:`kernel_table` as Python
    numbers, for the closed product's scalar loop, which numpy scalars
    would slow."""
    return tuple(zip(*(col.tolist() for col in kernel_table(n))))


@lru_cache(maxsize=None)
def _ray_pairs(n: int) -> tuple[tuple[complex, int], ...]:
    """The (rho, mult) of :func:`kernel_table`'s rays as Python numbers, for
    :func:`_kernel_loop`."""
    a, _, mult, _, _ = kernel_table(n)
    return tuple(zip(a.base.tolist(), mult.tolist()))


def _kernel_loop(rays, pz: complex, lim: float) -> tuple[complex, float, float]:
    """(sum mult f, sum mult |f|, min |Im u|) over ``rays``, (rho, mult)
    pairs, at pz = pi z, a float for real z: f = Re(rho cot u) for real z,
    [rho cot u + conj(rho cot u')] / 2 for complex z, with u = pz rho and
    u' = conj(pz) rho (for real z, u' = u), by ``cmath.tan``.

    The one singularity test, which :func:`_kernel_pass` applies alike: a
    ray with |tan u| |tan u'| < ``lim`` = _SINGULAR min(1, |pi z|)^2 raises
    KernelSingularError.  tan u tan u' vanishes at the poles of U_n on the
    ray and its conjugate; near z = 0 it is ~|pi z|^2, which the min scales
    out, so that no small z counts as a pole.
    """
    tot = abs_tot = 0.0
    low = math.inf
    pzc = pz.conjugate()
    real = isinstance(pz, float)
    for rho, mult in rays:
        u = pz * rho
        t = cmath.tan(u)
        if real:
            p = abs(t) * abs(t)
            f = mult * (rho / t).real
            y = abs(u.imag)
        else:
            u2 = pzc * rho
            t2 = cmath.tan(u2)
            p = abs(t) * abs(t2)
            f = 0.5 * mult * (rho / t + (rho / t2).conjugate())
            y = min(abs(u.imag), abs(u2.imag))
        if p < lim:
            _singular(rho)
        if y < low:
            low = y
        tot += f
        abs_tot += abs(f)
    return tot, abs_tot, low


def _kernel_pass(rho: np.ndarray, mult: np.ndarray, pz: complex, lim: float) -> tuple[
        complex, float, float]:
    """:func:`_kernel_loop` over the N rays rho (a complex column) with
    multiplicities mult in one numpy pass: the same terms and test; one
    ``np.add.reduce`` sums the rows f and |f| each in numpy's pairwise order,
    where a term meets at most 24 + max(0, ceil(log2(N / 128))) roundings
    (26 up to 512 rays), not N - 1 as in a left fold.  min |Im u| <= |pi z|
    is taken only where |pi z| > _FLAT, the only place u_closed reads it; it
    is 0 below."""
    real = isinstance(pz, float)
    u = pz * rho if real else np.multiply.outer((pz, pz.conjugate()), rho)
    t = np.tan(u)
    q = rho / t
    mod = np.abs(t)
    g = np.zeros((2, len(rho)), float if real else complex)  # rows f and |f|
    if real:
        f, p, scale = np.multiply(mult, q.real, out=g[0]), mod * mod, 1.0
    else:
        f, p, scale = np.multiply(mult, q[0] + q[1].conj(), out=g[0]), mod[0] * mod[1], 0.5
    if p.min() < lim:
        _singular(complex(rho[(p < lim).argmax()]))
    low = np.abs(u.imag).min().item() if abs(pz) > _FLAT else 0.0
    np.abs(f, out=g[1].real)
    s, a = np.add.reduce(g, axis=1).tolist()
    return scale * s, scale * a.real, low


def _singular(rho: complex) -> NoReturn:
    raise KernelSingularError(
        f"kernel term at the root rho={rho:.6g}: tan(pi z rho) tan(pi conj(z) rho) "
        "vanished; the evaluation point sits on or near a pole"
    )


def u_closed(n: int, z: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """Evaluate U_n(z) in closed form, for any n >= 1.

    One sum over the distinct rays of :func:`kernel_table` ((n + 2) // 4
    for even n, ceil(n/2) for odd n), each term weighted by its
    multiplicity: :func:`_kernel_loop` below ``_CROSSOVER`` rays, one numpy
    pass from there up.  ``work`` reports n, the number of terms of the
    closed form, regardless of |z|.

    Raises DomainError at poles and z = 0 of even n (validate_domain) and
    where z^(n-1) (power_in_range), pi z or |U_n(z)| plus its bar leaves the
    double range; KernelSingularError where a ray fails the singularity
    test.  The range checks on the input come first: z^(n-1), and |pi z| >=
    2^-1023, below which only n = 1 is left and |U_1| ~ 1/|z| is no double;
    so no value past the double range near z = 0 is taken for a pole.  Where
    a part of pi z is no double, the kernel runs at z/4, where every |Im u|
    past ``_FLAT`` gives each cot u the +-i it has at z.
    """
    z = validate_domain(n, z)
    zr = z.real if z.imag == 0.0 else z  # a float for real z
    zp, rel = power_in_range(zr, n - 1)
    pz = math.pi * zr
    quarter = not cmath.isfinite(pz)
    if quarter:
        pz = math.pi * (0.25 * zr)
    apz = math.hypot(pz.real, pz.imag)
    if apz < 2.0 ** -1023:  # n = 1 alone (z^0 = 1): |U_1| ~ 1/|z| > 2.8e308
        raise DomainError(f"domain: |U_{n}({z})| exceeds double range")
    lim = _SINGULAR * min(1.0, apz) ** 2
    a, _, mult, _, _ = kernel_table(n)
    if len(a) >= _CROSSOVER:
        tot, abs_tot, low = _kernel_pass(a.base, mult, pz, lim)
    else:
        try:
            tot, abs_tot, low = _kernel_loop(_ray_pairs(n), pz, lim)
        except OverflowError:  # a term's modulus is no double, nor is U_n's
            tot = abs_tot = low = math.inf
    term_sum = complex(tot)
    nzp = n * zp  # past 2^1022, nzp or the complex division's denominator overflows
    pref = (math.pi / nzp if abs(nzp.real) + abs(nzp.imag) < 2.0 ** 1022
            else 0.25 * ((math.pi / n) / (0.25 * zp)))
    value = complex(pref * term_sum)
    try:
        size = abs(value)
    except OverflowError:  # finite parts whose modulus is no double
        size = math.inf
    # Rounding model, relative to the value: cancellation across kernel terms,
    # the rounding of z^(n-1), and the arguments' scale 2 pi |z|, unless each
    # u lies past _FLAT (with its rounding, 4 eps |pi z|), where cot u is +-i
    # within 8.5e-18 however u rounds, under 0.1 eps of the term.
    cond = abs_tot / abs(term_sum) if term_sum != 0 else 1.0
    err = size * EPS * (8.0 + 4.0 * cond) + rel * size
    if apz <= _FLAT or low <= _FLAT + 4.0 * abs(EPS * pz):
        if quarter:
            raise DomainError(f"domain: pi z leaves double range at z={z}")
        err += 2.0 * math.pi * EPS * abs(z) * size
    if value == 0:
        err = abs(pref) * abs_tot * 4.0 * EPS
    if abs(pref) < 2.0 ** -1022:  # pref and value lose digits to underflow
        err += (abs_tot + 2.0) * math.ulp(0.0)
    if not math.isfinite(size + err):  # the value or its bar is no double
        raise DomainError(f"domain: |U_{n}({z})| exceeds double range")
    return EvalResult(value, err, Method.CLOSED_FORM, n)


# ---------------------------------------------------------------------------
# Unit-circle decomposition: z = e^(i theta)


def unit_circle_parts(
    n: int, theta: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[float, float]:
    """Real and imaginary parts of U_n at z = e^(i theta).

    With D_k = k^(2n) + 2 k^n cos(n theta) + 1 these are the real series

        Re U_n = sum_k (k^n + cos(n theta)) / D_k
        Im U_n = -sin(n theta) * sum_k 1 / D_k

    Both are summed at once as U_n at w = z^n = e^(i n theta), taken from
    cos(n theta) and sin(n theta), by the direct route's series
    (:func:`~cotlattice.direct.lattice_series`): symmetric pair terms to
    a cutoff K >= 16 and the Euler-Maclaurin-corrected tail beyond it,
    which reaches 1e-10 at n = 1 with a few dozen terms.

    Returns the pair (re, im).  Raises DomainError at a pole of
    :func:`validate_domain`; NonConvergentError if the tail bound cannot
    meet ``tol.target(max(|re|, |im|))`` within max_terms, also where
    max_terms is below the first block's 33 terms; ToleranceError where the
    whole bar does, as next to a pole, where the rounding of w is magnified.
    """
    require_order(n)
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    validate_domain(n, cmath.rect(1.0, theta))
    target = lambda v: tol.target(max(abs(v.real), abs(v.imag)))
    w = complex(math.cos(n * theta), math.sin(n * theta))  # off by (|n theta| + 2) eps
    value, err, _ = lattice_series(
        n, w, (abs(n * theta) + 2.0) * EPS, 16, tol.max_terms, target,
        lambda: f"unit_circle_parts(n={n}, theta={theta})")
    if err > target(value):
        raise ToleranceError(f"unit_circle_parts(n={n}, theta={theta}): error bound "
                             f"{err:.3g} exceeds target {target(value):.3g}")
    return value.real, value.imag
