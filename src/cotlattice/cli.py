"""Command-line front end.

Subcommands: ``eval`` (one record per method), ``zeta`` (series value
plus the limit-path diagnostic), ``product`` (closed form plus the
series cross-check), ``theta`` (psi values), ``verify``
(pairwise agreement report), and ``bench`` (work and wall-time table).

Every line of output is one record with a fixed superset of fields
(see docs/output_schema.md); ``--format`` renders the records as
``plain`` key=value lines, ``csv`` with a header row, or
``json-lines``.  Numeric fields are printed with 17 significant
digits, so parsing a record back recovers the exact doubles.

Exit codes: 0 when every gating computation met its tolerance, 1 on a
tolerance shortfall, 2 on usage or domain errors.  Diagnostic records
(the zeta limit path and the product series cross-check) report their
own accuracy but do not gate the exit code.

Tolerances resolve in three layers: built-in defaults, then an
optional JSON config file (``$XDG_CONFIG_HOME/cotlattice/config.json``,
i.e. ``~/.config/cotlattice/config.json`` by default; the
``COTLATTICE_CONFIG`` environment variable overrides the path and
nothing else), then explicit flags.  ``verify`` and ``bench`` start
from their stock grids' looser tolerances instead of the evaluation
default.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .dyadic import MAX_LEVEL
from .errors import DomainError, ToleranceError
from .theta import ThetaArg, psi
from .types import (
    DEFAULT_TOLERANCE,
    DomainStatus,
    Method,
    Tolerance,
    validate_domain,
)
from .verify import (
    ALL_METHODS,
    DEFAULT_BENCH_GRID,
    DEFAULT_VERIFY_GRID,
    applicable_methods,
    bench_points,
    evaluate_method,
    verify_points,
)
from .zeta_product import (
    ProductQuery,
    compose_ratio,
    product_parts,
    zeta_even,
    zeta_limit_diagnostic,
)

__all__ = [
    "OutputRecord",
    "COLUMNS",
    "parse_complex",
    "format_complex",
    "parse_grid_file",
    "load_config",
    "resolve_tolerance",
    "main",
    "entry",
]

#: Field order shared by every output format; docs/output_schema.md is
#: the normative description.
COLUMNS = (
    "record", "n", "z", "x", "y", "q", "side", "method", "method_b",
    "value_re", "value_im", "err_estimate", "delta", "bound", "work",
    "wall_time_ns", "passed", "error", "pairs_passed", "pairs_total",
    "schema_version",
)

_FLOAT_BODY = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^([+-]?{_FLOAT_BODY})(?:([+-]{_FLOAT_BODY})i)?$"
)

_METHOD_FLAGS = {
    "direct": Method.DIRECT_SUM,
    "closed": Method.CLOSED_FORM,
    "dyadic": Method.DYADIC_RECURSION,
    "theta": Method.THETA_INTEGRAL,
}

#: Why an explicitly requested method does not apply at order n.
_ORDER_RULES = {
    Method.DYADIC_RECURSION: "domain: dyadic recursion applies to orders n = 2^m "
                             "with 1 <= m <= {max_level}, got n={n}",
    Method.THETA_INTEGRAL: "domain: theta integral applies to even orders, got n={n}",
}

_TOL_FIELDS = ("abs_tol", "rel_tol", "max_terms", "max_nodes")


class _UsageError(Exception):
    """Malformed input detected outside argparse; maps to exit 2."""


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi', or 'a-bi' (no whitespace, scientific notation
    allowed) into a complex number.  Raises ValueError otherwise."""
    m = _COMPLEX_RE.match(text)
    if m is None:
        raise ValueError(
            f"expected a complex number as 'a', 'a+bi', or 'a-bi' "
            f"(no whitespace), got {text!r}"
        )
    re_part = float(m.group(1))
    im_part = float(m.group(2)) if m.group(2) is not None else 0.0
    return complex(re_part, im_part)


def _fmt_float(v: float) -> str:
    return "%.17g" % float(v)


def format_complex(z: complex) -> str:
    """Render a complex number in the input syntax, losslessly."""
    z = complex(z)
    if z.imag == 0.0:
        return _fmt_float(z.real)
    im = _fmt_float(z.imag)
    sign = "" if im.startswith("-") else "+"
    return f"{_fmt_float(z.real)}{sign}{im}i"


@dataclass(frozen=True)
class OutputRecord:
    """One output line; unset fields render empty (csv), or are omitted
    (plain, json-lines).  `value` expands to value_re/value_im."""

    record: str
    n: int | None = None
    z: complex | None = None
    x: float | None = None
    y: float | None = None
    q: float | None = None
    side: str | None = None
    method: str | None = None
    method_b: str | None = None
    value: complex | None = None
    err_estimate: float | None = None
    delta: float | None = None
    bound: float | None = None
    work: int | None = None
    wall_time_ns: int | None = None
    passed: bool | None = None
    error: str | None = None
    pairs_passed: int | None = None
    pairs_total: int | None = None
    schema_version: int | None = None

    def cells(self) -> dict[str, object]:
        """Column name -> native value, in COLUMNS order, None for unset."""
        out: dict[str, object] = {}
        for col in COLUMNS:
            if col == "value_re":
                out[col] = None if self.value is None else complex(self.value).real
            elif col == "value_im":
                out[col] = None if self.value is None else complex(self.value).imag
            else:
                out[col] = getattr(self, col)
        return out


_FLOAT_COLUMNS = frozenset(
    {"x", "y", "q", "value_re", "value_im", "err_estimate", "delta", "bound"}
)


def _render_cell(col: str, v: object) -> str:
    if v is None:
        return ""
    if col == "z":
        return format_complex(v)  # type: ignore[arg-type]
    if col == "passed":
        return "true" if v else "false"
    if col in _FLOAT_COLUMNS:
        return _fmt_float(v)  # type: ignore[arg-type]
    return str(v)


def _emit(records: list[OutputRecord], fmt: str, out) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(COLUMNS)
        for r in records:
            cells = r.cells()
            writer.writerow([_render_cell(c, cells[c]) for c in COLUMNS])
    elif fmt == "json-lines":
        for r in records:
            cells = r.cells()
            obj: dict[str, object] = {}
            for c in COLUMNS:
                v = cells[c]
                if v is None:
                    continue
                obj[c] = format_complex(v) if c == "z" else v
            out.write(json.dumps(obj) + "\n")
    else:
        for r in records:
            cells = r.cells()
            parts = []
            for c in COLUMNS:
                v = cells[c]
                if v is None:
                    continue
                text = _render_cell(c, v)
                if c == "error":
                    text = json.dumps(text)
                parts.append(f"{c}={text}")
            out.write(" ".join(parts) + "\n")


# ---------------------------------------------------------------------------
# configuration


def _config_path() -> Path | None:
    """Config file location; None when the default file does not exist.
    An explicit COTLATTICE_CONFIG must exist (silently skipping a file
    the user pointed at would hide typos)."""
    override = os.environ.get("COTLATTICE_CONFIG")
    if override:
        p = Path(override)
        if not p.is_file():
            raise _UsageError(f"config: COTLATTICE_CONFIG={override} does not exist")
        return p
    base = os.environ.get("XDG_CONFIG_HOME") or "~/.config"
    p = Path(base).expanduser() / "cotlattice" / "config.json"
    return p if p.is_file() else None


def load_config() -> dict[str, float | int]:
    """Read tolerance overrides from the config file, if any.

    The file is a JSON object whose keys are a subset of abs_tol,
    rel_tol, max_terms, max_nodes.  Unknown keys or non-numeric values
    are usage errors, not warnings: a typo should not silently revert
    to defaults.
    """
    path = _config_path()
    if path is None:
        return {}
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"config: {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError(f"config: {path}: top level must be a JSON object")
    out: dict[str, float | int] = {}
    for key, raw in data.items():
        if key not in _TOL_FIELDS:
            raise _UsageError(
                f"config: {path}: unknown key {key!r} "
                f"(expected one of {', '.join(_TOL_FIELDS)})"
            )
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise _UsageError(f"config: {path}: {key} must be a number, got {raw!r}")
        out[key] = int(raw) if key in ("max_terms", "max_nodes") else float(raw)
    return out


def resolve_tolerance(args: argparse.Namespace, config: dict[str, float | int],
                      base: Tolerance) -> Tolerance:
    """Layer config-file and flag overrides over a base tolerance."""
    vals: dict[str, float | int] = {f: getattr(base, f) for f in _TOL_FIELDS}
    vals.update(config)
    for f in _TOL_FIELDS:
        flag = getattr(args, f)
        if flag is not None:
            vals[f] = flag
    try:
        return Tolerance(**vals)  # type: ignore[arg-type]
    except ValueError as exc:
        raise _UsageError(f"tolerance: {exc}") from exc


# ---------------------------------------------------------------------------
# grid files


def parse_grid_file(path: str) -> tuple[tuple[int, complex], ...]:
    """Read grid points, one per line: ``n <int> z <complex>``.

    ``#`` starts a comment; blank lines are skipped.  At least one
    point is required.
    """
    points: list[tuple[int, complex]] = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise _UsageError(f"grid: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] != "n" or parts[2] != "z":
            raise _UsageError(
                f"grid: {path}:{lineno}: expected 'n <int> z <complex>', got {raw!r}"
            )
        try:
            n = int(parts[1])
            if n < 1:
                raise ValueError(f"order must be >= 1, got {n}")
            z = parse_complex(parts[3])
        except ValueError as exc:
            raise _UsageError(f"grid: {path}:{lineno}: {exc}") from exc
        points.append((n, z))
    if not points:
        raise _UsageError(f"grid: {path}: no grid points found")
    return tuple(points)


# ---------------------------------------------------------------------------
# subcommands


def _met(res_err: float, value: complex, tol: Tolerance) -> bool:
    return res_err <= tol.target(abs(value))


def cmd_eval(args: argparse.Namespace, tol: Tolerance) -> tuple[list[OutputRecord], int]:
    n, z = args.n, args.z
    status = validate_domain(n, z)
    if status is DomainStatus.EXCLUDED:
        raise DomainError("domain: z=0 excluded for even n")
    if status is DomainStatus.POLE:
        raise DomainError(f"domain: U_{n} at z={format_complex(z)}: pole")
    if args.method == "all":
        methods = applicable_methods(n, z, ALL_METHODS)
    else:
        methods = (_METHOD_FLAGS[args.method],)
        # z = 1 meets every point condition, so only the order can rule
        # the method out here; a point condition failing at z is the
        # evaluator's to report, as a record.
        if not applicable_methods(n, 1.0, methods):
            raise DomainError(_ORDER_RULES[methods[0]].format(n=n, max_level=MAX_LEVEL))
    records: list[OutputRecord] = []
    code = 0
    for method in methods:
        t0 = time.perf_counter_ns()
        try:
            res = evaluate_method(method, n, z, tol)
        except (DomainError, ToleranceError) as exc:
            elapsed = time.perf_counter_ns() - t0
            records.append(OutputRecord(
                record="eval", n=n, z=z, method=method.value,
                wall_time_ns=elapsed, error=str(exc)))
            code = max(code, 2 if isinstance(exc, DomainError) else 1)
            continue
        elapsed = time.perf_counter_ns() - t0
        records.append(OutputRecord(
            record="eval", n=n, z=z, method=res.method.value, value=res.value,
            err_estimate=res.err_estimate, work=res.work, wall_time_ns=elapsed))
        if not _met(res.err_estimate, res.value, tol):
            code = max(code, 1)
    return records, code


def cmd_zeta(args: argparse.Namespace, tol: Tolerance) -> tuple[list[OutputRecord], int]:
    n = args.n
    t0 = time.perf_counter_ns()
    res = zeta_even(n, tol)
    elapsed = time.perf_counter_ns() - t0
    records = [OutputRecord(
        record="zeta", n=n, side="series", method=res.method.value,
        value=res.value, err_estimate=res.err_estimate, work=res.work,
        wall_time_ns=elapsed)]
    code = 0 if _met(res.err_estimate, res.value, tol) else 1
    t0 = time.perf_counter_ns()
    try:
        diag = zeta_limit_diagnostic(n, tol)
    except ToleranceError as exc:
        elapsed = time.perf_counter_ns() - t0
        records.append(OutputRecord(
            record="zeta", n=n, side="limit", method=Method.CLOSED_FORM.value,
            wall_time_ns=elapsed, error=str(exc)))
    else:
        elapsed = time.perf_counter_ns() - t0
        records.append(OutputRecord(
            record="zeta", n=n, side="limit", method=Method.CLOSED_FORM.value,
            value=complex(diag.extrapolated), err_estimate=diag.err_estimate,
            work=2 * n * len(diag.samples), wall_time_ns=elapsed))
    return records, code


def cmd_product(args: argparse.Namespace, tol: Tolerance) -> tuple[list[OutputRecord], int]:
    query = ProductQuery(n=args.n, x=args.x, y=args.y)
    t0 = time.perf_counter_ns()
    lhs, rhs = product_parts(query, tol)
    elapsed = time.perf_counter_ns() - t0
    primary = compose_ratio(lhs, rhs)
    records = [
        OutputRecord(record="product", n=query.n, x=query.x, y=query.y,
                     side="closed", method=primary.method.value,
                     value=primary.value, err_estimate=primary.err_estimate,
                     work=primary.work, wall_time_ns=elapsed),
        OutputRecord(record="product", n=query.n, x=query.x, y=query.y,
                     side="series", method=lhs.method.value, value=lhs.value,
                     err_estimate=lhs.err_estimate, work=lhs.work,
                     wall_time_ns=elapsed),
    ]
    code = 0 if _met(primary.err_estimate, primary.value, tol) else 1
    return records, code


def cmd_theta(args: argparse.Namespace, tol: Tolerance) -> tuple[list[OutputRecord], int]:
    arg = ThetaArg.from_q(args.q)
    t0 = time.perf_counter_ns()
    res = psi(args.n, arg, tol)
    elapsed = time.perf_counter_ns() - t0
    records = [OutputRecord(
        record="theta", n=args.n, q=args.q, method=res.method.value,
        value=res.value, err_estimate=res.err_estimate, work=res.work,
        wall_time_ns=elapsed)]
    return records, 0 if _met(res.err_estimate, res.value, tol) else 1


def _grid_points(args: argparse.Namespace, stock) -> tuple[
        tuple[tuple[int, complex], ...], tuple[Method, ...]]:
    if args.grid == "default":
        points = tuple((n, z) for n in stock.n_values for z in stock.z_points)
        return points, stock.methods
    return parse_grid_file(args.grid), ALL_METHODS


def _harness_exit(error_kinds: list[str | None], all_ok: bool) -> int:
    if all_ok:
        return 0
    kinds = {k for k in error_kinds if k is not None}
    return 2 if kinds & {"domain", "usage"} else 1


def cmd_verify(args: argparse.Namespace, tol: Tolerance) -> tuple[list[OutputRecord], int]:
    points, methods = _grid_points(args, DEFAULT_VERIFY_GRID)
    report = verify_points(points, methods, tol)
    records: list[OutputRecord] = []
    for run in report.runs:
        records.append(OutputRecord(
            record="verify-run", n=run.n, z=run.z, method=run.method.value,
            value=run.value if run.ok else None,
            err_estimate=run.err_estimate if run.ok else None,
            work=run.work if run.ok else None,
            passed=run.ok, error=run.error))
    for pair in report.pairs:
        records.append(OutputRecord(
            record="verify-pair", n=pair.n, z=pair.z,
            method=pair.method_a.value, method_b=pair.method_b.value,
            delta=pair.delta, bound=pair.bound, passed=pair.passed))
    worst = report.summary.worst
    records.append(OutputRecord(
        record="verify-summary",
        n=worst.n if worst else None, z=worst.z if worst else None,
        method=worst.method_a.value if worst else None,
        method_b=worst.method_b.value if worst else None,
        delta=report.summary.max_delta if worst else None,
        bound=worst.bound if worst else None,
        passed=report.all_pass,
        pairs_passed=report.summary.pairs_passed,
        pairs_total=report.summary.pairs_total,
        schema_version=report.schema_version))
    code = _harness_exit([r.error_kind for r in report.runs], report.all_pass)
    return records, code


def cmd_bench(args: argparse.Namespace, tol: Tolerance) -> tuple[list[OutputRecord], int]:
    points, methods = _grid_points(args, DEFAULT_BENCH_GRID)
    rows = bench_points(points, methods, tol)
    records = []
    for row in rows:
        records.append(OutputRecord(
            record="bench", n=row.n, z=row.z, method=row.method.value,
            value=row.value if row.error is None else None,
            err_estimate=row.err_estimate if row.error is None else None,
            work=row.work if row.error is None else None,
            wall_time_ns=row.wall_time_ns, error=row.error))
    code = _harness_exit([r.error_kind for r in rows],
                         all(r.error is None for r in rows))
    return records, code


_HANDLERS = {
    "eval": cmd_eval,
    "zeta": cmd_zeta,
    "product": cmd_product,
    "theta": cmd_theta,
    "verify": cmd_verify,
    "bench": cmd_bench,
}

_BASE_TOLERANCES = {
    "eval": DEFAULT_TOLERANCE,
    "zeta": DEFAULT_TOLERANCE,
    "product": DEFAULT_TOLERANCE,
    "theta": DEFAULT_TOLERANCE,
    "verify": DEFAULT_VERIFY_GRID.tol,
    "bench": DEFAULT_BENCH_GRID.tol,
}


# ---------------------------------------------------------------------------
# argument parsing


def _order_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"order must be an integer, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"order must be >= 1, got {n}")
    return n


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _float_arg(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return v


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every call:
    parse_args leaves it unchanged, and building it costs more than most
    subcommands.  Callers must not modify it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "csv", "json-lines"),
                        default="plain", help="output rendering (default plain)")
    common.add_argument("--abs-tol", dest="abs_tol", type=_float_arg, default=None,
                        metavar="X", help="absolute error target")
    common.add_argument("--rel-tol", dest="rel_tol", type=_float_arg, default=None,
                        metavar="X", help="relative error target")
    common.add_argument("--max-terms", dest="max_terms", type=int, default=None,
                        metavar="K", help="series term budget")
    common.add_argument("--max-nodes", dest="max_nodes", type=int, default=None,
                        metavar="K", help="quadrature node budget")

    parser = argparse.ArgumentParser(
        prog="cotlattice",
        description="Evaluate the lattice sums U_n(z) = sum over integer k "
                    "of 1/(k^n + z^n), their zeta and product consequences, "
                    "and cross-method verification reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate U_n(z) by one or all applicable methods")
    p.add_argument("-n", type=_order_arg, required=True, help="series order")
    p.add_argument("-z", type=_complex_arg, required=True,
                   help="evaluation point, as 'a', 'a+bi', or 'a-bi'")
    p.add_argument("--method", choices=("direct", "closed", "dyadic", "theta", "all"),
                   default="all", help="evaluation route (default all applicable)")

    p = sub.add_parser("zeta", parents=[common],
                       help="zeta(2n): series value plus limit-path diagnostic")
    p.add_argument("-n", type=_order_arg, required=True, help="zeta index (value is zeta(2n))")

    p = sub.add_parser("product", parents=[common],
                       help="squared product ratio over 0 < x <= y < 1")
    p.add_argument("-n", type=_order_arg, required=True, help="series order")
    p.add_argument("-x", type=_float_arg, required=True, help="lower endpoint in (0,1)")
    p.add_argument("-y", type=_float_arg, required=True, help="upper endpoint in (0,1)")

    p = sub.add_parser("theta", parents=[common],
                       help="theta series Psi_n(q) for nome q in (0,1)")
    p.add_argument("-n", type=_order_arg, required=True, help="theta index")
    p.add_argument("-q", type=_float_arg, required=True, help="nome in (0,1)")

    p = sub.add_parser("verify", parents=[common],
                       help="cross-method agreement report over a grid")
    p.add_argument("--grid", default="default",
                   help="'default' or a grid file of 'n <int> z <complex>' lines")

    p = sub.add_parser("bench", parents=[common],
                       help="work and wall-time table over a grid")
    p.add_argument("--grid", default="default",
                   help="'default' or a grid file of 'n <int> z <complex>' lines")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        config = load_config()
        tol = resolve_tolerance(args, config, _BASE_TOLERANCES[args.command])
        records, code = _HANDLERS[args.command](args, tol)
    except ToleranceError as exc:
        print(f"cotlattice: {exc}", file=sys.stderr)
        return 1
    except (_UsageError, DomainError, ValueError) as exc:
        print(f"cotlattice: {exc}", file=sys.stderr)
        return 2
    _emit(records, args.format, sys.stdout)
    return code


def entry() -> None:
    """Console-script entry point."""
    sys.exit(main())
