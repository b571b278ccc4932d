"""High-precision references and output checks, run outside the timed region.

References are computed with mpmath at 30 or more significant digits:

* n = 1 and n = 2: the classical pi cot(pi z) and (pi / z) coth(pi z);
* other orders: the raw lattice series where it converges within a few
  thousand terms (large n), else the closed form over the n unit-circle
  angles;
* ``zeta_even``: ``mp.zeta(2n)``; ``product_ratio``: (sin pi y / sin pi x)^2
  and (sinh pi y / sinh pi x)^4 for n = 1, 2, the closed product otherwise;
* ``lattice_nsum``: ``mp.nsum`` of the raw series, which checks the
  closed-form reference itself on a few small-order points per run.

Precision is raised until the cancellation in each sum is covered.
"""

from __future__ import annotations

import json
import math
import re

import mpmath as mp

DPS = 30
#: Relative size of the discarded lattice tail accepted by the series route.
TAIL_REL = mp.mpf(10) ** -(DPS + 2)
#: Largest symmetric cutoff the series route will sum.
MAX_LATTICE_K = 3000


def _guard(z: complex) -> int:
    # Extra digits for tiny |z|, where the terms of both routes are ~1/z.
    return DPS + 5 + max(0, int(-math.log10(abs(z))) if z != 0 else 0)


def _closed_form(n: int, z: complex, dps: int):
    """Closed form over the n angles; returns (value, condition), where the
    condition bounds how much the kernel sum and each kernel's numerator
    and denominator amplify rounding."""
    with mp.workdps(dps):
        w = mp.mpc(z)
        tot = mp.mpc(0)
        mag = mp.mpf(0)
        for k in range(1, n + 1):
            th = (2 * k - 1) * mp.pi / n
            a, b = mp.cos(th), mp.sin(th)
            p, q = a * mp.sin(2 * mp.pi * w * a), b * mp.sinh(2 * mp.pi * w * b)
            c, d = 2 * mp.sinh(mp.pi * w * b) ** 2, 2 * mp.sin(mp.pi * w * a) ** 2
            f = (p + q) / (c + d)
            tot += f
            mag += (abs(p) + abs(q) + abs(f) * (abs(c) + abs(d))) / abs(c + d)
        return mp.pi / (n * w ** (n - 1)) * tot, mag / abs(tot)


def _lattice(n: int, z: complex, dps: int):
    """Symmetric partial sum over |k| <= K with K chosen so that the tail
    bound 2 K^(1-n) / ((n-1)(1 - (|z|/K)^n)) is below TAIL_REL * |sum|.
    Returns (value, condition) or None if K would exceed MAX_LATTICE_K."""
    with mp.workdps(dps):
        w = mp.mpc(z) ** n
        az = mp.mpf(abs(z))
        tot = 1 / w
        mag = abs(tot)
        k = 0
        while True:
            k += 1
            kn = mp.mpf(k) ** n
            for d in (kn + w, (-1) ** n * kn + w):
                tot += 1 / d
                mag += (kn + abs(w)) / abs(d) ** 2
            if k > az + 1:
                kk = mp.mpf(k)
                tail = 2 * kk ** (1 - n) / ((n - 1) * (1 - (az / kk) ** n))
                if tail <= TAIL_REL * abs(tot):
                    return tot, mag / abs(tot)
            if k > MAX_LATTICE_K:
                return None


def _lattice_cost(n: int, z: complex) -> float:
    # cutoff where (K/|z|)^(n-1) outgrows 10^(DPS+2), in lattice terms
    return max(abs(z), 1.0) * 10.0 ** ((DPS + 2) / (n - 1)) + 2.0


def cheap(n: int, z: complex) -> bool:
    """True where lattice_u costs well under a millisecond or two."""
    return n <= 2 or _lattice_cost(n, z) < 2 * n


def lattice_u(n: int, z: complex) -> complex:
    """U_n(z) to about DPS digits, as a Python complex."""
    if n == 1 or n == 2:
        with mp.workdps(_guard(z)):
            w = mp.mpc(z)
            v = mp.pi * mp.cot(mp.pi * w) if n == 1 else mp.pi / w * mp.coth(mp.pi * w)
            return complex(v)
    dps = _guard(z)
    while True:
        res = None
        if cheap(n, z):
            res = _lattice(n, z, dps)
        if res is None:
            res = _closed_form(n, z, dps)
        v, cond = res
        lost = int(mp.log10(cond)) + 1 if cond > 1 else 0
        if lost <= dps - DPS:
            return complex(v)
        dps = DPS + lost + 5


def lattice_nsum(n: int, z: complex) -> complex:
    """U_n(z) by mp.nsum of the raw series; independent of the closed form."""
    with mp.workdps(_guard(z) + 10):
        w = mp.mpc(z) ** n
        if n % 2 == 0:
            s = 1 / w + 2 * mp.nsum(lambda k: 1 / (k ** n + w), [1, mp.inf])
        else:
            s = 1 / w + mp.nsum(lambda k: 2 * w / (w * w - k ** (2 * n)), [1, mp.inf])
        return complex(s)


def zeta_even(n: int) -> float:
    with mp.workdps(DPS):
        return float(mp.zeta(2 * n))


def product_ratio(n: int, x: float, y: float) -> float:
    """prod over integer k of ((y^n + k^n) / (x^n + k^n))^2."""
    with mp.workdps(DPS + 5):
        X, Y = mp.mpf(x), mp.mpf(y)
        if n == 1:
            return float((mp.sin(mp.pi * Y) / mp.sin(mp.pi * X)) ** 2)
        if n == 2:
            return float((mp.sinh(mp.pi * Y) / mp.sinh(mp.pi * X)) ** 4)
        tot = mp.mpf(1)
        for k in range(1, n + 1):
            th = (2 * k - 1) * mp.pi / n
            a, b = mp.cos(th), mp.sin(th)
            tot *= ((mp.sinh(mp.pi * Y * b) ** 2 + mp.sin(mp.pi * Y * a) ** 2)
                    / (mp.sinh(mp.pi * X * b) ** 2 + mp.sin(mp.pi * X * a) ** 2))
        return float(tot)


# ---------------------------------------------------------------------------
# CLI json-lines records (docs/output_schema.md, schema version 1)

COLUMNS = (
    "record", "n", "z", "x", "y", "q", "side", "method", "method_b",
    "value_re", "value_im", "err_estimate", "delta", "bound", "work",
    "wall_time_ns", "passed", "error", "pairs_passed", "pairs_total",
    "schema_version",
)
_TYPES = {
    "record": str, "n": int, "z": str, "x": float, "y": float, "q": float,
    "side": str, "method": str, "method_b": str, "value_re": float,
    "value_im": float, "err_estimate": float, "delta": float, "bound": float,
    "work": int, "wall_time_ns": int, "passed": bool, "error": str,
    "pairs_passed": int, "pairs_total": int, "schema_version": int,
}
METHODS = ("direct", "closed", "dyadic", "theta")
_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = re.compile(rf"^([+-]?{_FLOAT})(?:([+-]{_FLOAT})i)?$")


def parse_complex(text: str) -> complex:
    m = _COMPLEX.match(text)
    if m is None:
        raise ValueError(f"bad complex {text!r}")
    return complex(float(m.group(1)), float(m.group(2)) if m.group(2) else 0.0)


def _typed(key, value) -> bool:
    want = _TYPES[key]
    if want is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool) \
            and math.isfinite(value)
    if want is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, want)


def parse_verify_output(code: int, text: str, n: int, z: complex):
    """Parse and check one ``verify --format json-lines`` output.

    Returns (runs, pairs, problems): runs are (method, value, err, work) or
    (method, None, None, error) for failed runs, pairs are
    (method_a, method_b, passed), problems lists every schema or
    consistency breach found.
    """
    problems: list[str] = []
    runs, pairs, summaries = [], [], []
    for line in text.splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"not json: {exc}")
            continue
        bad = [k for k, v in rec.items() if k not in _TYPES or not _typed(k, v)]
        if bad or list(rec) != [c for c in COLUMNS if c in rec]:
            problems.append(f"bad fields {bad} or order in {rec}")
            continue
        kind = rec.get("record")
        if kind in ("verify-run", "verify-pair") and (
                rec.get("n") != n or parse_complex(rec.get("z", "")) != z):
            problems.append(f"record for another point: {rec}")
        if kind == "verify-run":
            if rec.get("method") not in METHODS:
                problems.append(f"bad method: {rec}")
            elif rec.get("passed") is True and {"value_re", "value_im", "err_estimate", "work"} <= set(rec):
                runs.append((rec["method"], complex(rec["value_re"], rec["value_im"]),
                             rec["err_estimate"], rec["work"]))
            elif rec.get("passed") is False and "error" in rec:
                runs.append((rec["method"], None, None, rec["error"]))
            else:
                problems.append(f"incomplete run record: {rec}")
        elif kind == "verify-pair":
            if not {"method", "method_b", "delta", "bound", "passed"} <= set(rec):
                problems.append(f"incomplete pair record: {rec}")
                continue
            pairs.append(rec)
        elif kind == "verify-summary":
            summaries.append(rec)
        else:
            problems.append(f"unexpected record: {rec}")
    if len(summaries) != 1:
        problems.append(f"{len(summaries)} summary records")
        return runs, [], problems
    values = {m: v for m, v, _, _ in runs if v is not None}
    out_pairs = []
    for rec in pairs:
        a, b = rec["method"], rec["method_b"]
        if a not in values or b not in values:
            problems.append(f"pair of missing runs: {rec}")
            continue
        if rec["delta"] != abs(values[a] - values[b]) or rec["passed"] != (rec["delta"] <= rec["bound"]):
            problems.append(f"pair record inconsistent with its runs: {rec}")
        out_pairs.append((a, b, rec["passed"]))
    s = summaries[0]
    all_pass = all(v is not None for _, v, _, _ in runs) and all(p for _, _, p in out_pairs)
    if (s.get("pairs_total") != len(out_pairs)
            or s.get("pairs_passed") != sum(p for _, _, p in out_pairs)
            or s.get("passed") != all_pass or s.get("schema_version") != 1):
        problems.append(f"summary inconsistent with records: {s}")
    if (code == 0) != all_pass:
        problems.append(f"exit code {code} with passed={all_pass}")
    return runs, out_pairs, problems
