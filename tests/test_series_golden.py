"""Bit-for-bit outcomes of the series routes on a seeded sweep.

``u_direct``, ``unit_circle_parts``, ``product_ratio`` and ``zeta_even``
are run on fixed seeded inputs, and each outcome (value, err_estimate and
work as ``float.hex``, or the exception type and message) must equal the
recorded one exactly.  The u_direct points cover orders 1..8, 12, 31, 64
and 195, real and complex, near poles, at |z^n| up to 2^1024 (past 2^1023
the k = 0 term and c_1 are formed from z^n / 2), and at cutoffs whose
terms need scaling (k^n past 2^1022) or overflow, under several
tolerances and budgets.

A change that means to keep these outcomes proves it here.  To record
new ones after an intended change, run

    PYTHONPATH=src python tests/test_series_golden.py

and review the diff of ``tests/golden/series.json``.
"""

import json
import math
import random
from pathlib import Path

import pytest

from cotlattice import (
    ProductQuery,
    Tolerance,
    product_ratio,
    u_direct,
    unit_circle_parts,
    zeta_even,
)

GOLDEN = Path(__file__).parent / "golden" / "series.json"

DIRECT_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 12, 31, 64, 195)
TOLERANCES = (
    Tolerance(),
    Tolerance(abs_tol=1e-6, rel_tol=0.0, max_terms=10**8),
    Tolerance(abs_tol=0.0, rel_tol=1e-14),
    Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_terms=200),
)


def _complex(rng: random.Random, r: float) -> complex:
    if rng.random() < 0.5:
        return complex(r if rng.random() < 0.5 else -r, 0.0)
    phi = math.pi * (2.0 * rng.random() - 1.0)
    return complex(r * math.cos(phi), r * math.sin(phi))


def direct_points() -> list[tuple[int, complex, int]]:
    """(n, z, tolerance index) for u_direct."""
    rng = random.Random("series-golden:direct")
    points = []
    for n in DIRECT_ORDERS:
        # 2^-1000 <= |z^n| <= 2^1022, so that 2 z^n stays a double
        lo = max(-3.0, -1000.0 / n * math.log10(2.0))
        hi = min(3.0, 1022.0 / n * math.log10(2.0))
        for _ in range(80):
            r = 10.0 ** (lo + (hi - lo) * rng.random())
            points.append((n, _complex(rng, r), rng.randrange(len(TOLERANCES))))
        # next to the poles at integers (odd n) and on the root rays
        for _ in range(6):
            k = rng.randint(1, 5)
            eps = 10.0 ** rng.uniform(-13, -3)
            theta = (2 * rng.randrange(n) + 1) * math.pi / n
            z = complex(k * (1 + eps) * math.cos(theta), k * (1 + eps) * math.sin(theta))
            points.append((n, z, 0))
        # |z^n| from 2^1000 to 2^1022: the cutoff's k^n passes 2^1022
        for _ in range(4):
            lg = (1000.0 + 22.0 * rng.random()) / n
            points.append((n, _complex(rng, 2.0 ** lg), 0))
    # orders whose k^n overflows at the starting cutoff while |z^n| is
    # too small for the terms to be scaled
    for n in (256, 300, 1000):
        for _ in range(5):
            lg = (-1000.0 + 1900.0 * rng.random()) / n
            points.append((n, _complex(rng, 2.0 ** lg), 0))
    # more than one chunk of terms, the origin, a pole, a budget miss
    points += [(1, complex(1.5e6 + 0.25, 0.0), 0), (2, 1.3e6 + 4e5j, 0),
               (2, 0j, 0), (3, 2 + 0j, 0), (1, 0.25 + 0j, 3), (2, 300 + 0j, 3)]
    # |z^n| from 2^1023 to 2^1024: the k = 0 term and, for odd n, c_1 are
    # formed from z^n / 2, real and complex
    for n in (64, 195, 1000):
        for j in range(8):
            r = 2.0 ** ((1023.0 + rng.random()) / n)
            phi = math.pi * (2.0 * rng.random() - 1.0)
            z = complex(r * math.cos(phi), r * math.sin(phi)) if j % 2 else (-r, r)[j % 4 // 2]
            points.append((n, complex(z), 0))
    return points


def circle_points() -> list[tuple[int, float, int]]:
    rng = random.Random("series-golden:circle")
    points = [(n, 2.0 * math.pi * rng.random(), rng.randrange(3))
              for n in range(1, 9) for _ in range(25)]
    return points + [(1, math.pi, 0), (2, math.pi / 2, 0), (3, math.pi / 3, 0)]


def product_points() -> list[tuple[int, float, float, int]]:
    rng = random.Random("series-golden:product")
    points = []
    for n in range(1, 9):
        for _ in range(12 if n > 2 else 4):
            x, y = sorted(0.01 + 0.98 * rng.random() for _ in range(2))
            points.append((n, x, y, 1 if n <= 2 else rng.randrange(3)))
    return points + [(3, 0.5, 0.5, 0), (2, 0.999999, 0.9999999, 1)]


def zeta_points() -> list[tuple[int, int]]:
    return [(n, t) for n in range(1, 17) for t in range(3)]


def _hex(v: complex) -> list[str]:
    return [float(v.real).hex(), float(v.imag).hex()]


def _outcome(f, *args) -> dict:
    try:
        res = f(*args)
    except Exception as exc:  # the type and message are the outcome
        return {"raises": type(exc).__name__, "message": str(exc)}
    if isinstance(res, tuple):
        return {"parts": [float(v).hex() for v in res]}
    return {"value": _hex(res.value), "err": float(res.err_estimate).hex(),
            "work": res.work}


def outcomes() -> dict[str, list]:
    tol = TOLERANCES
    return {
        "u_direct": [[n, _hex(z), t, _outcome(u_direct, n, z, tol[t])]
                     for n, z, t in direct_points()],
        "unit_circle_parts": [[n, th.hex(), t, _outcome(unit_circle_parts, n, th, tol[t])]
                              for n, th, t in circle_points()],
        "product_ratio": [[n, x.hex(), y.hex(), t,
                           _outcome(lambda: product_ratio(ProductQuery(n, x, y), tol[t]))]
                          for n, x, y, t in product_points()],
        "zeta_even": [[n, t, _outcome(zeta_even, n, tol[t])] for n, t in zeta_points()],
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current():
    return outcomes()


@pytest.mark.parametrize("name", ["u_direct", "unit_circle_parts", "product_ratio",
                                  "zeta_even"])
def test_outcomes_bit_identical(name, recorded, current):
    assert len(current[name]) == len(recorded[name])
    for now, then in zip(current[name], recorded[name]):
        assert now == then


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outcomes(), indent=0) + "\n")
