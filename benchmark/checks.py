"""Correctness checks of one run's outputs, made after timing.

An op fails if it raised, or if a value it returned claims an error above
the caller's ``tol.target(|value|)``.  Method pairs disagree when two
values differ by more than their combined error bounds.  A bound is
violated when a value misses the mpmath reference by more than its own
``err_estimate``.  Failures, disagreements and violations are counted,
never filtered out.  ``Report.problems`` collects what makes a run
incorrect: exceptions outside the package's error hierarchy, CLI output
that breaks docs/output_schema.md, values that miss the reference by far
more than any error bar, a reference that disagrees with ``mp.nsum``, and
work counters that do not repeat or do not match the returned work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import oracle
import workloads

EPS = 2.0 ** -52
#: closed-eval ops checked per run against the costly closed-form reference;
#: ops with a cheap reference (n <= 2, or a fast-converging series) are all
#: checked.
ORACLE_SAMPLE = 250
#: Small-order points per run on which the reference is checked by mp.nsum.
NSUM_CHECKS = 3
#: A value that misses the reference by more than this many times its
#: tolerance target plus its claimed error is wrong, not just optimistic.
WRONG_FACTOR = 1e4


@dataclass
class Report:
    failed: int = 0
    fail_kinds: dict = field(default_factory=dict)
    pairs: int = 0
    pairs_failed: int = 0
    checked: int = 0
    violations: int = 0
    worst_violation: tuple = (0.0, "")
    #: work reported by the results, per method
    work: dict = field(default_factory=lambda: dict.fromkeys(oracle.METHODS, 0))
    #: CLI output of one pass: records and bytes
    cli_records: int = 0
    cli_bytes: int = 0
    problems: list = field(default_factory=list)

    def note_fail(self, kind: str) -> None:
        self.failed += 1
        self.fail_kinds[kind] = self.fail_kinds.get(kind, 0) + 1

    def pair(self, a: complex, ea: float, b: complex, eb: float) -> None:
        # the same combined bound verify uses: both bounds plus final rounding
        self.pairs += 1
        self.pairs_failed += abs(a - b) > ea + eb + 4.0 * EPS * max(1.0, abs(a), abs(b))


def _rows(op, out, pkg, rep: Report) -> tuple[list, bool]:
    """(label, value, claimed error, tolerance target) of every value, and
    whether a verify run inside the op failed."""
    tol = workloads.tolerance_of(op, pkg)
    if op.kind == "circle":
        # unit_circle_parts raises unless both parts meet the target, so the
        # target is the bound it claims
        re_part, im_part = out[0]
        target = tol.target(max(abs(re_part), abs(im_part)))
        return [("re", complex(re_part), target, target),
                ("im", complex(im_part), target, target)], False
    if op.kind == "verify":
        code, text = out
        rep.cli_records += len(text.splitlines())
        rep.cli_bytes += len(text.encode())
        runs, pairs, problems = oracle.parse_verify_output(code, text, op.n, op.z)
        rep.problems += [f"{op}: {p}" for p in problems]
        rep.pairs += len(pairs)
        rep.pairs_failed += sum(not ok for _, _, ok in pairs)
        rows = [(m, v, err, tol.target(abs(v))) for m, v, err, _ in runs if v is not None]
        for m, v, _, work in runs:
            if v is not None:
                rep.work[m] += work
        return rows, len(rows) < len(runs)
    rows = []
    for res in out:
        rows.append((res.method.value, res.value, res.err_estimate, tol.target(abs(res.value))))
        if op.kind in ("closed", "direct"):
            rep.work[res.method.value] += res.work
    return rows, False


def classify(workload: str, seed: int, ops, outcomes, pkg) -> Report:
    """Failures, method pairs, schema and reference checks of one pass."""
    rep = Report()
    values: dict[int, list] = {}
    for i, (op, out) in enumerate(zip(ops, outcomes)):
        if isinstance(out, Exception):
            if not isinstance(out, pkg.CotlatticeError):
                rep.problems.append(f"{op}: unexpected {type(out).__name__}: {out}")
            rep.note_fail(type(out).__name__)
            continue
        rows, run_failed = _rows(op, out, pkg, rep)
        values[i] = rows
        if run_failed:
            rep.note_fail("verify-run")
        elif any(err > target for _, _, err, target in rows):
            rep.note_fail("shortfall")
        if op.kind == "closed" and len(rows) == 2:
            rep.pair(rows[0][1], rows[0][2], rows[1][1], rows[1][2])
        elif op.kind == "direct":
            try:
                ref = pkg.u_closed(op.n, op.z)
            except pkg.CotlatticeError:
                continue
            rep.pair(rows[0][1], rows[0][2], ref.value, ref.err_estimate)

    rng = random.Random(f"oracle:{workload}:{seed}")
    picks = sorted(values)
    if workload == "closed-eval":
        cheap = [i for i in picks if oracle.cheap(ops[i].n, ops[i].z)]
        rest = [i for i in picks if not oracle.cheap(ops[i].n, ops[i].z)]
        picks = sorted(cheap + rng.sample(rest, min(ORACLE_SAMPLE, len(rest))))
    for i in picks:
        _check_reference(ops[i], values[i], rep)

    small = [i for i in picks if ops[i].kind in ("closed", "direct", "verify")
             and 2 <= ops[i].n <= 4 and abs(ops[i].z) <= 3.0]
    for i in rng.sample(small, min(NSUM_CHECKS, len(small))):
        a = oracle.lattice_u(ops[i].n, ops[i].z)
        b = oracle.lattice_nsum(ops[i].n, ops[i].z)
        if abs(a - b) > 1e-20 * abs(b):
            rep.problems.append(f"reference disagrees with mp.nsum at {ops[i]}: {a} vs {b}")
    return rep


def _check_reference(op, rows, rep: Report) -> None:
    if op.kind in ("closed", "direct", "verify"):
        ref = oracle.lattice_u(op.n, op.z)
    elif op.kind == "circle":
        ref = oracle.lattice_u(op.n, complex(math.cos(op.theta), math.sin(op.theta)))
    elif op.kind == "zeta":
        ref = complex(oracle.zeta_even(op.n))
    else:
        ref = complex(oracle.product_ratio(op.n, op.x, op.y))
    violated = False
    for label, value, err, target in rows:
        if label == "re":
            miss = abs(value.real - ref.real)
        elif label == "im":
            miss = abs(value.real - ref.imag)
        else:
            miss = abs(value - ref)
        if miss > WRONG_FACTOR * (target + err):
            rep.problems.append(f"{op}: {label} value {value} misses the reference {ref} "
                                f"by {miss:.3g} (target {target:.3g}, claimed error {err:.3g})")
        if miss > err:
            violated = True
            ratio = miss / err if err else math.inf
            if ratio > rep.worst_violation[0]:
                rep.worst_violation = (ratio, f"{op} {label}: error {miss:.3g}, claimed {err:.3g}")
    rep.checked += 1
    rep.violations += violated


def check_counters(layers: list[dict], rep: Report) -> list[str]:
    """Work counters must repeat between traced passes and equal the work
    the returned results report."""
    problems = []
    counts = [k for k in layers[0] if not k.endswith("_s") and ".ns_per" not in k]
    for other in layers[1:]:
        diff = [k for k in counts if other[k] != layers[0][k]]
        if diff:
            problems.append(f"work counters differ between traced passes: {diff}")
    expect = {
        # phi's work is the kernel terms of its order-2 base calls
        "closed.kernel_terms": rep.work["closed"] + rep.work["dyadic"],
        "dyadic.base_calls": rep.work["dyadic"] // 2,
        "direct.terms": rep.work["direct"],
        "quadrature.nodes": rep.work["theta"],
    }
    for key, value in expect.items():
        if layers[0][key] != value:
            problems.append(f"{key} = {layers[0][key]} but the results report {value}")
    return problems
