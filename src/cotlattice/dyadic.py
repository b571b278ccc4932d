"""Dyadic recursion for U_(2^m)(z).

The scalar factorization 1/(a^2 + b^2) = [1/(a - ib) - 1/(a + ib)]/(2ib)
applied with a = k^(2^(m-1)), b = z^(2^(m-1)) turns the order-2^m
lattice sum into a difference of two order-2^(m-1) sums at rotated
arguments:

    phi_m(z) = [phi_(m-1)(r_neg z) - phi_(m-1)(r_pos z)] / (2i z^(2^(m-1)))

with r_pos = exp(i pi 2^-m) and r_neg = exp(3 i pi 2^-m), so that
(r_pos z)^(2^(m-1)) = +i z^(2^(m-1)) and (r_neg z)^(2^(m-1)) =
-i z^(2^(m-1)).  Fractional powers of i are taken on the principal
branch, i^t = exp(i pi t / 2); the orientation (which rotation is the
minuend) is fixed by that branch choice and cross-checked against
direct summation in the test suite.

The base case phi_1 = U_2 is the closed form pi coth(pi z) / z; the
recursion itself costs 2^(m-1) base evaluations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

from .closed import u_closed
from .errors import DomainError, RecursionPoleError
from .numerics import EPS, ipow
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

__all__ = ["MAX_LEVEL", "phi"]

#: Deepest supported level; the series exponent 2^m reaches 1024 here and
#: z^(2^(m-1)) would under/overflow doubles soon after.
MAX_LEVEL = 10

#: The rotations (r_neg, r_pos) = (exp(3 i pi 2^-m), exp(i pi 2^-m))
#: that descend from level m to m - 1, indexed by m:
#: (r_neg z)^(2^(m-1)) = -i z^(2^(m-1)) and (r_pos z)^(2^(m-1)) = +i z^(2^(m-1)).
_ROTATIONS = tuple(
    (cmath.exp(3j * (math.pi * 2.0**-m)), cmath.exp(1j * (math.pi * 2.0**-m)))
    for m in range(MAX_LEVEL + 1)
)


def _phi_rec(m: int, z: complex, tol: Tolerance) -> EvalResult:
    if m == 1:
        return u_closed(2, z, tol)
    rotation_neg, rotation_pos = _ROTATIONS[m]
    half = 2 ** (m - 1)
    zp = ipow(z, half)
    denom = 2j * zp
    if denom == 0 or not (math.isfinite(zp.real) and math.isfinite(zp.imag)):
        raise DomainError(
            f"domain: z^{half} under/overflows at recursion level m={m}; "
            "evaluate via u_closed instead"
        )
    try:
        res_neg = _phi_rec(m - 1, rotation_neg * z, tol)
        res_pos = _phi_rec(m - 1, rotation_pos * z, tol)
    except RecursionPoleError:
        raise
    except DomainError as exc:
        raise RecursionPoleError(
            f"recursion: rotated argument at level m={m - 1} hits a pole "
            f"of U_{2 ** (m - 1)} ({exc})"
        ) from exc
    a, b = res_neg.value, res_pos.value
    diff = a - b
    abs_sum = abs(a) + abs(b)
    value = diff / denom
    scale = abs(denom)
    # Child errors propagate through the division; the subtraction adds
    # rounding at the abs-sum scale, which is what inflates the estimate
    # when a and b nearly cancel.
    err = (res_neg.err_estimate + res_pos.err_estimate + 2.0 * EPS * abs_sum) / scale
    err += 4.0 * EPS * abs(value)
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise DomainError(
            f"domain: |U_{2 ** m}({z})| exceeds double range at recursion level m={m}"
        )
    return EvalResult(
        value=value,
        err_estimate=err,
        method=Method.DYADIC_RECURSION,
        work=res_neg.work + res_pos.work,
    )


def phi(m: int, z: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> EvalResult:
    """Evaluate phi_m(z) = U_(2^m)(z) by the halving recursion.

    Args:
        m: recursion level, 1 <= m <= 10; the series order is 2^m.
        z: evaluation point, z != 0.
        tol: tolerance forwarded to the base evaluations.

    Returns:
        EvalResult tagged DYADIC_RECURSION; work is the summed base
        work, err_estimate the propagated child bound including
        cancellation inflation of the level subtractions.

    Raises:
        DomainError: z = 0, z a pole of U_(2^m), or z^(2^(m-1)) not
            representable.
        RecursionPoleError: a rotated intermediate argument hits a pole
            of a lower level.
        ValueError: m outside 1..10 (use u_closed for higher orders:
            its cost is n kernel terms with no depth limit).
    """
    require_order(m)
    if m > MAX_LEVEL:
        raise ValueError(
            f"recursion level m={m} exceeds {MAX_LEVEL} (exponent 2^{m}); "
            "z^(2^(m-1)) under/overflows doubles there -- use u_closed, "
            "whose cost is linear in the order"
        )
    z = require_finite_scalar(z)
    if z == 0:
        raise DomainError("domain: z=0 excluded for even n")
    status = validate_domain(2**m, z)
    if status is not DomainStatus.OK:
        raise DomainError(f"domain: U_{2 ** m} at z={z}: {status.value}")
    res = _phi_rec(m, complex(z), tol)
    # The base case carries the closed form's tag; the contract is that
    # phi always reports the recursion method.
    return replace(res, method=Method.DYADIC_RECURSION) if m == 1 else res
