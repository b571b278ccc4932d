"""Bit-for-bit outcomes of the closed form on a seeded sweep.

``u_closed`` and ``phi`` are run on fixed seeded inputs, and each outcome
(value, err_estimate and work as ``float.hex``, or the exception type and
message) must equal the recorded one exactly.  The u_closed points cover
ray counts 1..512, on both sides of the scalar loop's crossover to the
numpy pass, at odd and even orders, real and complex z; points 1e-13 to
1e-5 off the root rays, where the singularity test decides; |z| near
1e-9; and parts past 5.7e307, where pi z is no double and the kernel runs
at z/4.  The phi points cover m = 1..10.

A change that means to keep these outcomes proves it here.  To record
new ones after an intended change, run

    PYTHONPATH=src python tests/test_closed_golden.py

and review the diff of ``tests/golden/closed.json``.
"""

import json
import math
import random
from pathlib import Path

import pytest

from cotlattice import phi, u_closed
from test_series_golden import _complex, _hex, _outcome

GOLDEN = Path(__file__).parent / "golden" / "closed.json"

#: Ray counts: every one up to 40, then about four per octave to 512.
RAYS = sorted(set(range(1, 41)) | {round(2.0 ** (e / 4.0)) for e in range(21, 37)})


def _orders(rays: int) -> tuple[int, ...]:
    """The odd order and the two even orders with ``rays`` rays."""
    return tuple(n for n in (2 * rays - 1, 4 * rays - 2, 4 * rays) if n >= 1)


def closed_points() -> list[tuple[int, complex]]:
    rng = random.Random("closed-golden:u_closed")
    points = []
    for rays in RAYS:
        for n in _orders(rays):
            top = min(3.0, 300.0 / n)  # |z|^(n-1) stays a normal double
            for _ in range(2):
                points.append((n, _complex(rng, 10.0 ** rng.uniform(-top, top))))
    # 1e-13..1e-5 off a root ray, next to the poles k rho
    for n in (1, 2, 3, 4, 7, 12, 33, 35, 36, 70, 71, 255, 1024):
        for _ in range(6):
            k = rng.randint(1, max(1, min(4, int(10.0 ** (280.0 / n)))))
            d = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-13.0, -5.0)
            theta = (2 * rng.randrange(n) + 1) * math.pi / n
            z = k * (1.0 + d) * complex(math.cos(theta), math.sin(theta))
            points.append((n, z if abs(z.imag) > 1e-12 * k else complex(z.real, 0.0)))
    # |z| near 1e-9, where tan u ~ u; the pass's least orders at 1e-7, where
    # U_n ~ z^(-n) is still a double
    for n, r in ((1, 1e-9), (2, 1e-9), (3, 1e-9), (4, 1e-9), (7, 1e-9), (12, 1e-9),
                 (19, 1e-9), (30, 1e-9), (35, 1e-7), (37, 1e-7)):
        for _ in range(3):
            points.append((n, _complex(rng, r * 10.0 ** rng.uniform(-0.3, 0.3))))
    # parts past 5.7e307: pi z is no double
    for n in (1, 2, 3):
        for _ in range(4):
            re, im = (rng.choice((-1.0, 1.0)) * rng.uniform(5.7e307, 1.7e308) for _ in "ri")
            points.append((n, complex(re, im if rng.random() < 0.75 else 0.0)))
    return points + [(1, 5e307 + 3.05e307j), (1, 9.86e307 + 3.05e307j),
                     (2, 1.7e308 + 1.7e308j)]


def phi_points() -> list[tuple[int, complex]]:
    rng = random.Random("closed-golden:phi")
    points = []
    for m in range(1, 11):
        top = min(1.0, 250.0 / 2 ** m)  # |z|^(2^m) stays a double
        for _ in range(4):
            points.append((m, _complex(rng, 10.0 ** rng.uniform(-top, top))))
    return points


def outcomes() -> dict[str, list]:
    return {
        "u_closed": [[n, _hex(z), _outcome(u_closed, n, z)] for n, z in closed_points()],
        "phi": [[m, _hex(z), _outcome(phi, m, z)] for m, z in phi_points()],
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current():
    return outcomes()


@pytest.mark.parametrize("name", ["u_closed", "phi"])
def test_outcomes_bit_identical(name, recorded, current):
    assert len(current[name]) == len(recorded[name])
    for now, then in zip(current[name], recorded[name]):
        assert now == then


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outcomes(), indent=0) + "\n")
