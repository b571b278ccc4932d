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
from decimal import Decimal
from itertools import accumulate, repeat
from operator import mul
from typing import Callable

import numpy as np

from .errors import NonConvergentError
from .numerics import EPS, SIGNS, Kahan, series_tail, signed_powers
from .types import (
    DEFAULT_TOLERANCE,
    EvalResult,
    Method,
    Tolerance,
    power_in_range,
    validate_domain,
)

__all__ = ["u_direct"]

_CHUNK = 2_000_000


def _ldexp(v: complex, e: int) -> complex:
    return complex(math.ldexp(v.real, e), math.ldexp(v.imag, e))


def _pair_sums(n: int, w: complex, lo: int, hi: int) -> tuple[complex, float, float]:
    """Terms at +-k for lo <= k <= hi: their sum, sum |t| kappa, sum |t|.

    Each term t = 1/(d + w), d = (+-k)^n, is summed as it stands, a row per
    sign (one for even n), each row by numpy's pairwise sum as if alone;
    kappa = (|d| + |w|)/|d + w|, its denominator's condition number, is
    large only next to a pole.  k^n and the rows (+-k)^n come from
    :func:`signed_powers` except where k^n or |w| nears the top of the
    double range: there t is 2^(-e) / ((+-k 2^-j)^n + w 2^-e), e = j n,
    which scales exactly and keeps d + |w| a double; j is capped so that
    w 2^-e stays far from underflow, and terms whose scaled k^n still
    overflows are 0.
    """
    acc = Kahan()
    cond = mag = 0.0
    for start in range(lo, hi + 1, _CHUNK):
        top = min(start + _CHUNK - 1, hi)
        e, ws = 0, w
        if n * math.log2(top) > 1022 or abs(w) > 2.0 ** 1022:
            lw = math.log2(abs(w))
            j = max(0, min(math.ceil(max(math.log2(top) - 1022 / n, (lw - 1022) / n)),
                           math.floor((lw + 969) / n)))
            ks = np.arange(start, top + 1, dtype=np.float64) * 0.5 ** j
            e, ws = j * n, _ldexp(w, -j * n)
            with np.errstate(over="ignore", under="ignore"):
                d = ks ** n
            d = d[np.isfinite(d)]
            rows = SIGNS[n % 2] * d
        else:
            d, rows = signed_powers(n, start, top)
        inv = 1.0 / (rows + ws)
        r = len(inv)
        block = np.empty((2 * r, inv.shape[1]))  # rows (d + |w|) |t| |t|, then |t|
        m = np.abs(inv, out=block[r:])  # |t|^2 would underflow for large k^n
        weight = np.add(d, abs(ws), out=block[:r])
        weight *= m
        weight *= m
        cs = np.add.reduce(block, axis=1).tolist()
        for t, c, s in zip(np.add.reduce(inv, axis=1).tolist(), cs, cs[r:]):
            if e:
                t, c, s = _ldexp(t, -e), math.ldexp(c, -e), math.ldexp(s, -e)
            acc.add(t)
            cond += c
            mag += s
    if n % 2 == 0:
        return 2.0 * acc.total, 2.0 * cond, 2.0 * mag
    return acc.total, cond, mag


def lattice_series(n: int, w: complex, rel_w: float, cutoff: int, max_terms: int,
                   target: Callable[[complex], float],
                   where: Callable[[], str]) -> tuple[complex, float, int]:
    """U_n as 1/w + sum_{k>=1} (terms at +-k) with z^n = w, tail corrected.

    Sums the terms at +-k up to ``cutoff`` and adds the expanded tail;
    the cutoff doubles while the tail bound exceeds ``target(value)``,
    each doubling extending the previous partial sum.  Raises
    NonConvergentError (naming ``where()``) when the first block, 2 cutoff
    + 1 terms, or a doubling would exceed ``max_terms``, also where the
    cutoff itself is past the double range.

    Returns (value, err, final cutoff).  ``err`` is the tail bound plus
    a rounding bound for a ``w`` good to relative ``rel_w``.  A term's
    denominator d + w carries the error of w and of d = k^n (one ulp)
    magnified by its condition number kappa, and the reciprocal and the
    sums add a few eps of sum |t|:

        EPS * (max(1, rel_w / EPS) * sum |t| kappa
               + (13 + log2(K) / 2) * sum |t|)

    over the k = 0 term, the terms at +-k and a majorant of the tail.
    Where |w| >= 2^1023, 2 w and 1/w may overflow: the k = 0 term and,
    for odd n, c_1 are then formed from w / 2, the tail summed for c_1 / 2.
    """
    if 2 * cutoff + 1 > max_terms:
        try:
            shown = f"{cutoff:.3g}"
        except OverflowError:  # 2 ceil(|z|) past the double range
            shown = f"{Decimal(cutoff):.3g}"
        raise NonConvergentError(
            f"{where()}: starting cutoff K={shown} already exceeds max_terms={max_terms}"
        )
    e = 1 if abs(w) >= 2.0 ** 1023 else 0
    k0_term = 0.5 / _ldexp(w, -1) if e else 1.0 / w
    if n % 2:  # paired: 1/(k^n + w) + 1/(-k^n + w) = 2w/(w^2 - k^(2n))
        p, c1, step = 2 * n, math.ldexp(-2.0, -e) * w, w * w
    else:  # c_1 = 2 needs no scaling
        p, c1, step, e = n, 2.0, -w, 0
    radius = abs(w) ** (1.0 / n)  # |c_m| = |c_1| radius^(p (m-1))

    acc = Kahan()
    cond, mag, lo = 0.0, 0.0, 1
    while True:
        head, more_cond, more_mag = _pair_sums(n, w, lo, cutoff)
        acc.add(head)
        cond += more_cond
        mag += more_mag
        coeffs = accumulate(repeat(step), mul, initial=c1)  # c1 step^(m-1)
        tail, bound = series_tail(coeffs, p, cutoff, abs(c1), radius)
        if e:
            tail, bound = _ldexp(tail, e), math.ldexp(bound, e)
        value = acc.total + tail + k0_term
        if bound <= target(value):
            break
        if 2 * (2 * cutoff) + 1 > max_terms:
            raise NonConvergentError(
                f"{where()}: tail bound {bound:.3g} still above target "
                f"{target(value):.3g} at K={cutoff} and doubling "
                f"would exceed max_terms={max_terms}"
            )
        lo, cutoff = cutoff + 1, 2 * cutoff
    acc.add(tail)
    acc.add(k0_term)  # added last so compensation absorbs the large term
    # Every tail term has kappa <= (1 + q)/(1 - q) <= 3 and the terms'
    # moduli sum to at most 2 |c_1| K^(1-p)/(p-1) since q <= 1/2.
    tail_mag = 2.0 * math.ldexp(abs(c1) * cutoff ** (1.0 - p), e) / (p - 1)
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
    :func:`lattice_series`: w = z^n comes with its relative rounding from
    :func:`power_in_range`, and each term magnifies that error by its
    condition number, which is large only next to a pole.

    Raises DomainError at poles, excluded points and where z^n leaves the
    double range, before any budget check; NonConvergentError if
    max_terms is hit first.
    """
    z = validate_domain(n, z)
    w, rel_w = power_in_range(z, n)
    az = math.hypot(z.real, z.imag)  # inf, where abs(z) raises, past 1.8e308
    k = max(16, 2 * math.ceil(az)) if az < math.inf else 4 * math.ceil(abs(0.5 * z))
    value, err, k = lattice_series(n, w, rel_w, k, tol.max_terms, tol.target,
                                   lambda: f"u_direct(n={n}, z={z})")
    return EvalResult(value, err, Method.DIRECT_SUM, 2 * k + 1)
