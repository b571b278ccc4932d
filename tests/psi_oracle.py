"""40-digit references for the theta series Psi_n(e^(-t)), the sum over all
integers k of e^(-t k^(2n)), computed apart from cotlattice's evaluator.

``psi_ref(n, t)`` takes t as a float or an mpmath number.  ``log_nome(q)``
is t = -log q, exact to 40 digits, for a double nome q.  A test that calls
them is skipped where mpmath is missing.
"""

import pytest


def _mp():
    return pytest.importorskip("mpmath").mp


def theta3(t):
    """theta3(0, e^(-t)) = Psi_1(e^(-t)) at the working precision.  Next to
    t = 0, where mpmath's jtheta refuses the nome, Jacobi's transform
    sqrt(pi/t) theta3(0, e^(-pi^2/t)) stands in."""
    mp = _mp()
    t = mp.mpf(t)
    if mp.exp(-t) < mp.THETA_Q_LIM:
        return mp.jtheta(3, 0, mp.exp(-t))
    return mp.sqrt(mp.pi / t) * mp.jtheta(3, 0, mp.exp(-mp.pi ** 2 / t))


def psi_ref(n, t):
    """Psi_n(e^(-t)) to 40 digits: theta3 at n = 1; else the series summed
    term by term over k <= K, the first k with t k^(2n) > 120.  By the
    integral test the rest is under e^(-120) K / (240 n): below 1e-45 for
    K <= 1e5 (t >= 1e-18 at n = 2)."""
    mp = _mp()
    with mp.workdps(40):
        if n == 1:
            return +theta3(t)
        t = mp.mpf(t)
        top = int((120 / t) ** (mp.mpf(1) / (2 * n))) + 1
        return 1 + 2 * mp.fsum(mp.exp(-t * k ** (2 * n)) for k in range(1, top + 1))


def log_nome(q):
    """t = -log q to 40 digits for a double q in (0, 1)."""
    mp = _mp()
    with mp.workdps(40):
        return -mp.log(mp.mpf(q))
