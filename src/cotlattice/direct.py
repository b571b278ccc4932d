"""Direct evaluation of U_n(z) = sum over all integers k of 1/(k^n + z^n).

The sum is always taken as the symmetric limit of partial sums over
|k| <= K: the terms at +-k are summed as they stand, 1/(k^n + w) and
1/((-k)^n + w) with w = z^n.  For even n they coincide and the series
converges absolutely.  For odd n each pair combines to

    1/(k^n + w) + 1/(-k^n + w) = 2 w / (w^2 - k^(2n)),

an absolutely convergent series with O(k^(-2n)) terms whose partial
sums are the symmetric limit by construction.

The terms beyond K are not dropped but summed: for k^n > |w| each pair
expands as a power series in k^-n,

    2 / (k^n + w)        =  sum_{m>=1} 2 (-w)^(m-1) k^(-n m)       (even n)
    2 w / (w^2 - k^(2n)) = -sum_{m>=1} 2 w (w^2)^(m-1) k^(-2n m)   (odd n)

so the tail is a combination of zeta tails, evaluated with a certified
bound by :func:`~cotlattice.numerics.series_tail`.  A cutoff of a few
dozen terms then meets tolerances that a bounded but uncorrected tail
needs ~1/target terms for.  Only partial sums and zeta tails are used;
the route never touches the closed form.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import mul
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergentError
from .numerics import EPS, Kahan, ipow, series_tail
from .types import (
    DEFAULT_TOLERANCE,
    DomainStatus,
    EvalResult,
    Method,
    Tolerance,
    require_finite_scalar,
    require_order,
    validate_domain,
)

__all__ = ["u_direct"]

_CHUNK = 2_000_000


def _pair_sums(n: int, w: complex, lo: int, hi: int) -> tuple[complex, float, float]:
    """Terms at +-k for lo <= k <= hi: their sum, sum |t| kappa, sum |t|.

    Each term t = 1/(d + w), d = (+-k)^n, is summed as it stands (for
    even n the two coincide); kappa = (|d| + |w|)/|d + w| is the
    condition number of its denominator, large only in the band
    |k|^n ~ |w| next to a pole.  Terms whose k^n overflowed are 0.
    """
    acc = Kahan()
    cond = 0.0
    mag = 0.0
    signs = (1.0,) if n % 2 == 0 else (1.0, -1.0)
    for start in range(lo, hi + 1, _CHUNK):
        ks = np.arange(start, min(start + _CHUNK - 1, hi) + 1, dtype=np.float64)
        with np.errstate(over="ignore", under="ignore"):
            d = ks * ks if n == 2 else ks ** n
            d = d[np.isfinite(d)]
            for sign in signs:
                inv = 1.0 / (sign * d + w)
                acc.add(complex(inv.sum()))
                m = np.abs(inv)  # |inv|^2 would underflow for large k^n
                cond += float(((d + abs(w)) * m * m).sum())
                mag += float(m.sum())
    if n % 2 == 0:
        return 2.0 * acc.total, 2.0 * cond, 2.0 * mag
    return acc.total, cond, mag


def lattice_series(n: int, w: complex, rel_w: float, cutoff: int, max_terms: int,
                   target: Callable[[complex], float],
                   where: str) -> tuple[complex, float, int]:
    """U_n as 1/w + sum_{k>=1} (terms at +-k) with z^n = w, tail corrected.

    Sums the terms at +-k up to ``cutoff`` and adds the expanded tail;
    the cutoff doubles while the tail bound exceeds ``target(value)``,
    each doubling extending the previous partial sum.  Raises
    NonConvergentError (naming ``where``) when doubling would exceed
    ``max_terms``.

    Returns (value, err, final cutoff).  ``err`` is the tail bound plus
    a rounding bound for a ``w`` good to relative ``rel_w``.  A term's
    denominator d + w carries the error of w and of d = k^n (one ulp)
    magnified by its condition number kappa, and the reciprocal and the
    sums add a few eps of sum |t|:

        EPS * (max(1, rel_w / EPS) * sum |t| kappa
               + (13 + log2(K) / 2) * sum |t|)

    over the k = 0 term, the terms at +-k and a majorant of the tail.
    """
    if n % 2:  # paired: 1/(k^n + w) + 1/(-k^n + w) = 2w/(w^2 - k^(2n))
        p, c1, step = 2 * n, -2.0 * w, w * w
    else:
        p, c1, step = n, 2.0, -w
    radius = abs(w) ** (1.0 / n)  # |c_m| = |c_1| radius^(p (m-1))

    k0_term = 1.0 / w
    acc = Kahan()
    partial, cond, mag = _pair_sums(n, w, 1, cutoff)
    acc.add(partial)
    while True:
        coeffs = accumulate(repeat(step), mul, initial=c1)  # c1 step^(m-1)
        tail, bound = series_tail(coeffs, p, cutoff, abs(c1), radius)
        value = acc.total + tail + k0_term
        if bound <= target(value):
            break
        if 2 * (2 * cutoff) + 1 > max_terms:
            raise NonConvergentError(
                f"{where}: tail bound {bound:.3g} still above target "
                f"{target(value):.3g} at K={cutoff} and doubling "
                f"would exceed max_terms={max_terms}"
            )
        partial, more_cond, more_mag = _pair_sums(n, w, cutoff + 1, 2 * cutoff)
        acc.add(partial)
        cond += more_cond
        mag += more_mag
        cutoff *= 2
    acc.add(tail)
    acc.add(k0_term)  # added last so compensation absorbs the large term
    # Every tail term has kappa <= (1 + q)/(1 - q) <= 3 and the terms'
    # moduli sum to at most 2 |c_1| zeta_tail_upper(p, K) since q <= 1/2.
    tail_mag = 2.0 * abs(c1) * cutoff ** (1.0 - p) / (p - 1)
    cond += abs(k0_term) + 3.0 * tail_mag
    mag += abs(k0_term) + tail_mag
    rounding = max(EPS, rel_w) * cond + (13.0 + 0.5 * math.log2(cutoff)) * EPS * mag
    return acc.total, bound + rounding, cutoff


def u_direct(n: int, z: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """Evaluate U_n(z) by compensated symmetric summation with a
    corrected tail.

    Explicit terms run to a cutoff K that starts at
    K0 = max(16, 2*ceil(|z|)) and doubles while the Euler-Maclaurin
    tail bound misses ``max(abs_tol, rel_tol * |value|)``; the rest of
    the series is the expanded tail of the module docstring.  ``work``
    counts the lattice terms summed explicitly (2K + 1).

    ``err_estimate`` is the tail bound plus the rounding bound of
    :func:`lattice_series`: w = z^n comes from repeated squaring and is
    good to (n - 1) u for real z, sqrt(5) (n - 1) u for complex z
    (u = EPS/2), and each term magnifies that error by its condition
    number, which is large only next to a pole.

    Raises DomainError at poles and excluded points, NonConvergentError
    if max_terms is hit first.
    """
    require_order(n)
    z = require_finite_scalar(z)
    status = validate_domain(n, z)
    if status is DomainStatus.EXCLUDED:
        raise DomainError("domain: z=0 excluded for even n")
    if status is not DomainStatus.OK:
        raise DomainError(f"domain: U_{n} at z={z}: {status.value}")

    k = max(16, 2 * math.ceil(abs(z)))
    where = f"u_direct(n={n}, z={z})"
    if 2 * k + 1 > tol.max_terms:
        raise NonConvergentError(
            f"{where}: starting cutoff K={k} already exceeds max_terms={tol.max_terms}"
        )
    w = ipow(z, n)
    if w == 0 or not math.isfinite(1.0 / abs(w)):
        raise DomainError(
            f"domain: z^{n} underflows double range at z={z}; the k=0 term "
            "1/z^n is not representable"
        )
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError(
            f"domain: z^{n} overflows double range at z={z}; the direct "
            "series cannot be formed"
        )
    rel_w = (n - 1) * (0.5 if z.imag == 0.0 else 1.125) * EPS
    value, err, k = lattice_series(n, w, rel_w, k, tol.max_terms,
                                   lambda v: tol.target(abs(v)), where)
    return EvalResult(value=value, err_estimate=err, method=Method.DIRECT_SUM, work=2 * k + 1)
