"""Small numeric building blocks: compensated accumulation, integer
powers, and zeta-style tail estimates."""

from __future__ import annotations

import cmath
import math
from typing import Iterable

from .errors import InvalidCutoffError

__all__ = [
    "ipow",
    "Kahan",
    "zeta_tail",
    "zeta_tail_upper",
    "series_tail",
]

EPS = 2.0 ** -52
_LOG_EPS = math.log(EPS)


def ipow(base, e: int):
    """base**e for integer e >= 0 by binary exponentiation.

    Works for float and complex alike and preserves exact conjugate
    symmetry (only multiplications are used).
    """
    if e < 0:
        raise ValueError("ipow expects e >= 0")
    result = 1.0 if isinstance(base, float) else type(base)(1)
    b = base
    m = e
    while m:
        if m & 1:
            result = result * b
        m >>= 1
        if m:
            b = b * b
    return result


class Kahan:
    """Compensated (Kahan) accumulator.

    Works componentwise for complex values since complex +/- are exact
    per component whenever the float operations are.
    """

    __slots__ = ("total", "_c")

    def __init__(self, start: complex = 0j) -> None:
        self.total = start
        self._c = 0j

    def add(self, x: complex) -> None:
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


def zeta_tail(s: float, cutoff: int) -> tuple[float, float]:
    """Estimate sum_{k > cutoff} k**-s with a certified remainder bound.

    Uses Euler-Maclaurin through the third derivative term:

        sum_{k>K} k^-s = a^(1-s)/(s-1) + a^-s/2 + s a^-(s+1)/12
                         - s(s+1)(s+2) a^-(s+3)/720 + R,   a = K + 1,

    where |R| is at most the first omitted term because the derivatives
    of x^-s alternate in sign.  Returns (estimate, remainder_bound).
    """
    if s <= 1.0:
        raise ValueError(f"zeta_tail needs s > 1, got {s}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    a = cutoff + 1.0
    est = (
        a ** (1.0 - s) / (s - 1.0)
        + 0.5 * a ** (-s)
        + s * a ** (-s - 1.0) / 12.0
        - s * (s + 1.0) * (s + 2.0) * a ** (-s - 3.0) / 720.0
    )
    rem = s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) * a ** (-s - 5.0) / 30240.0
    return est, rem


def zeta_tail_upper(s: float, cutoff: int) -> float:
    """Crude upper bound on sum_{k > cutoff} k**-s by integral comparison."""
    if s <= 1.0:
        raise ValueError(f"zeta_tail_upper needs s > 1, got {s}")
    return float(cutoff) ** (1.0 - s) / (s - 1.0)


def series_tail(coeffs: Iterable[complex], p: int, cutoff: int,
                scale: float, radius: float) -> tuple[complex, float]:
    """sum_{k > cutoff} sum_{m >= 1} c_m k^(-p m) with a certified bound.

    This is the tail of a lattice series whose terms expand in powers of
    k^-p, e.g. 1/(k^n + w) = sum_j (-w)^j k^(-n(j+1)) for k^n > |w|.
    ``coeffs`` yields c_1, c_2, ... (consumed only as far as needed; it
    may end early when the later c_m vanish), and
    |c_m| <= scale * radius^(p (m-1)).  With q = (radius / cutoff)^p the
    orders m <= J are summed as c_m * zeta_tail(p m, cutoff), J being
    the first order with q^J <= EPS (or the last with a finite c_m);
    the rest is bounded by the geometric majorant

        sum_{m>J} scale radius^(p (m-1)) cutoff^(1-p m) / (p m - 1)
            <= scale cutoff^(1-p) q^J / ((p (J+1) - 1) (1 - q)),

    where 1/(1 - q) <= 2 as q <= 1/2 is required.  Returns (estimate,
    bound); the bound adds the Euler-Maclaurin remainders
    sum_{m<=J} |c_m| rem_m, the majorant and the rounding of the sum.
    Raises InvalidCutoffError if q > 1/2.
    """
    if p < 2:
        raise ValueError(f"series_tail needs p >= 2, got {p}")
    log_k = math.log(cutoff)
    log_q = p * (math.log(radius) - log_k) if radius > 0.0 else -math.inf
    if log_q > -math.log(2.0):
        raise InvalidCutoffError(
            f"cutoff K={cutoff} too small for the expansion: "
            f"(radius / K)^{p} = {math.exp(log_q):.3g} > 1/2"
        )
    est = 0j
    bound = 0.0
    mag = 0.0
    j = 0
    for c in coeffs:
        if j and not cmath.isfinite(c):
            break  # this order and the rest are left to the majorant
        j += 1
        t, rem = zeta_tail(float(p * j), cutoff)
        est += c * t
        mag += abs(c) * t
        bound += abs(c) * rem
        if j * log_q <= _LOG_EPS:
            break
    if scale > 0.0:
        log_major = math.log(scale) + (1 - p) * log_k + j * log_q
        bound += 2.0 * math.exp(log_major) / (p * (j + 1) - 1)
    return est, bound + (3 + j) * EPS * mag
