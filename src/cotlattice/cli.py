"""Command-line front end.

Subcommands: ``eval`` (one record per method), ``zeta`` (series value
plus the contour-mean limit), ``product`` (closed form plus the
series cross-check), ``theta`` (psi values), ``verify``
(pairwise agreement report), and ``bench`` (work and wall-time table).

Every line of output is one record: a row of ``COLUMNS``, held as a
dict keyed by column name in which an absent key is an unset field
(see docs/output_schema.md).  ``--format`` renders the records as
``plain`` key=value lines, ``csv`` with a header row, or
``json-lines``.  Floats print as ``%.17g``, in json-lines as the
shortest repr, so parsing a record back recovers the exact doubles.
``eval``, ``verify`` and ``bench`` evaluate through the harness's
:func:`~cotlattice.verify.run_method`, so a failed method is a record
with ``error`` set in all three.

Exit codes: 0 when every gating computation met its tolerance, else
the largest ``errors.EXIT_CODES`` entry of the failures' kinds: 1 on a
tolerance shortfall, 2 on usage or domain errors.  Diagnostic records
(the zeta limit side and the product series cross-check) report their
own accuracy but do not gate the exit code.

A record depends on its command line alone: the tolerance is the
built-in default, or for ``verify`` and ``bench`` their stock grids'
looser tolerance, with each of ``--abs-tol``, ``--rel-tol``,
``--max-terms`` and ``--max-nodes`` that is given put in its place.
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
from dataclasses import replace
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import EXIT_CODES, DomainError, ToleranceError, error_kind
from .theta import psi
from .types import (
    DEFAULT_TOLERANCE,
    EvalResult,
    Method,
    Tolerance,
    validate_domain,
)
from .verify import (
    ALL_METHODS,
    DEFAULT_BENCH_GRID,
    DEFAULT_VERIFY_GRID,
    SCHEMA_VERSION,
    MethodRun,
    PairCheck,
    applicable_methods,
    order_rule,
    run_method,
    verify_points,
)
from .zeta_product import (
    ProductQuery,
    compose_ratio,
    product_parts,
    zeta_contour,
    zeta_even,
)

__all__ = [
    "COLUMNS",
    "parse_complex",
    "format_complex",
    "parse_grid_file",
    "resolve_tolerance",
    "main",
    "entry",
]

#: Each field's type, in the field order shared by every output format;
#: docs/output_schema.md is the normative description.
_COLUMN_TYPES = {
    "record": str, "n": int, "z": complex, "x": float, "y": float, "q": float,
    "side": str, "method": str, "method_b": str, "value_re": float,
    "value_im": float, "err_estimate": float, "delta": float, "bound": float,
    "work": int, "wall_time_ns": int, "passed": bool, "error": str,
    "pairs_passed": int, "pairs_total": int, "schema_version": int,
}
COLUMNS = tuple(_COLUMN_TYPES)

_FLOAT_BODY = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^([+-]?{_FLOAT_BODY})(?:([+-]{_FLOAT_BODY})i)?$"
)

_TOL_FIELDS = ("abs_tol", "rel_tol", "max_terms", "max_nodes")


class _UsageError(Exception):
    """Malformed input detected outside argparse; maps to exit 2."""


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi', or 'a-bi' (no whitespace, scientific notation
    allowed) into a complex number with finite parts.  Raises ValueError
    otherwise, also for a literal that overflows, such as '1e400'."""
    m = _COMPLEX_RE.match(text)
    if m is None:
        raise ValueError(
            f"expected a complex number as 'a', 'a+bi', or 'a-bi' "
            f"(no whitespace), got {text!r}"
        )
    re_part = float(m.group(1))
    im_part = float(m.group(2)) if m.group(2) is not None else 0.0
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ValueError(f"expected a finite complex number, got {text!r}")
    return complex(re_part, im_part)


def format_complex(z: complex) -> str:
    """Render a complex number in the input syntax, losslessly."""
    z = complex(z)
    if z.imag == 0.0:
        return "%.17g" % z.real
    return "%.17g%+.17gi" % (z.real, z.imag)


def _json_float(v: float) -> str:
    """v as json.dumps spells it, without its overhead for finite v."""
    return float.__repr__(v) if v - v == 0.0 else json.dumps(v)


#: Cell renderers by column type, (plain and csv, json-lines).  z has
#: none: _emit formats each z once, and json-lines quotes it.
_RENDERERS = {
    str: (str, encode_basestring_ascii),
    int: (str, str),
    float: ("%.17g".__mod__, _json_float),
    bool: ({True: "true", False: "false"}.__getitem__,) * 2,
    complex: (None, None),
}


@lru_cache(maxsize=64)
def _layout(keys: tuple[str, ...], fmt: str):
    """The (column, renderer) pairs of records with these keys, set
    columns in COLUMNS order, and the % template of their line; csv has
    none, as its writer quotes the cells."""
    json_lines = fmt == "json-lines"
    # plain JSON-quotes error, so that a message with spaces stays one field
    cells = tuple((c, encode_basestring_ascii if fmt == "plain" and c == "error"
                   else _RENDERERS[kind][json_lines])
                  for c, kind in _COLUMN_TYPES.items() if c in keys)
    if json_lines:
        parts = [('"%s": "%%s"' if c == "z" else '"%s": %%s') % c for c, _ in cells]
        return cells, "{%s}\n" % ", ".join(parts)
    return cells, None if fmt == "csv" else " ".join(c + "=%s" for c, _ in cells) + "\n"


def _emit(records: list[dict[str, object]], fmt: str, out) -> None:
    """Write records, dicts keyed by COLUMNS names with absent keys
    unset, in one of the three formats.  A report repeats its point's z
    object on every record, so z is formatted once per object."""
    rendered = []
    z = z_text = None
    for r in records:
        cells, template = _layout(tuple(r), fmt)
        if r.get("z", z) is not z:
            z, z_text = r["z"], format_complex(r["z"])
        texts = [z_text if render is None else render(r[c]) for c, render in cells]
        rendered.append(template % tuple(texts) if template else
                        dict(zip([c for c, _ in cells], texts)))
    if fmt == "csv":
        writer = csv.DictWriter(out, COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rendered)
    else:
        out.write("".join(rendered))


def resolve_tolerance(args: argparse.Namespace, base: Tolerance) -> Tolerance:
    """Put the tolerance flags that are set over a base tolerance."""
    overrides = {f: getattr(args, f) for f in _TOL_FIELDS if getattr(args, f) is not None}
    if not overrides:
        return base
    try:
        return replace(base, **overrides)
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
        with open(path, "rb", buffering=0) as fh:
            lines = fh.read().decode("utf-8").splitlines()
    except OSError as exc:
        exc.filename = str(Path(path))  # the file as messages name it: no ./ or //
        raise _UsageError(f"grid: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _UsageError(f"grid: {path}: {exc}") from exc
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


#: Each method's tag, looked up once: Enum.value is a property call.
_TAGS = {m: m.value for m in Method}


def _cells(res: MethodRun | EvalResult, record: dict[str, object]) -> dict[str, object]:
    """record, given the method cell of a result and its value, err_estimate
    and work cells, or the error cell of a failed run."""
    record["method"] = _TAGS[res.method]
    if (error := getattr(res, "error", None)) is not None:
        record["error"] = error
    else:
        value = complex(res.value)
        record.update(value_re=value.real, value_im=value.imag,
                      err_estimate=res.err_estimate, work=res.work)
    return record


def _timed(record: dict[str, object], fn, *args):
    """fn(*args), its wall time stored in record["wall_time_ns"]."""
    t0 = time.perf_counter_ns()
    result = fn(*args)
    record["wall_time_ns"] = time.perf_counter_ns() - t0
    return result


def _missed(res: MethodRun | EvalResult, tol: Tolerance) -> bool:
    return res.err_estimate > tol.target(abs(res.value))


def _exit_code(runs, missed: bool) -> int:
    """The largest EXIT_CODES entry of the failed runs' error kinds, a
    missed target counting as a tolerance error; 0 if there are none."""
    return max([EXIT_CODES["tolerance"] if missed else 0,
                *(EXIT_CODES[r.error_kind] for r in runs if not r.ok)])


def cmd_eval(args: argparse.Namespace, tol: Tolerance) -> tuple[list[dict], int]:
    n, z = args.n, args.z
    validate_domain(n, z)
    if args.method == "all":
        methods = applicable_methods(n, z, ALL_METHODS)
    else:
        methods = (Method(args.method),)
        # Only the order rules it out here; a point condition fails as a record.
        if rule := order_rule(methods[0], n):
            raise DomainError(rule)
    runs = [run_method(m, n, z, tol) for m in methods]
    records = [_cells(run, {"record": "eval", "n": n, "z": z, "wall_time_ns": run.wall_time_ns})
               for run in runs]
    return records, _exit_code(runs, any(r.ok and _missed(r, tol) for r in runs))


def cmd_zeta(args: argparse.Namespace, tol: Tolerance) -> tuple[list[dict], int]:
    n = args.n
    series: dict[str, object] = {"record": "zeta", "n": n, "side": "series"}
    res = _timed(series, zeta_even, n, tol)
    _cells(res, series)
    limit: dict[str, object] = {"record": "zeta", "n": n, "side": "limit"}
    _cells(_timed(limit, zeta_contour, n, tol), limit)
    return [series, limit], _exit_code((), _missed(res, tol))


def cmd_product(args: argparse.Namespace, tol: Tolerance) -> tuple[list[dict], int]:
    query = ProductQuery(n=args.n, x=args.x, y=args.y)
    point: dict[str, object] = {"record": "product", "n": query.n, "x": query.x, "y": query.y}
    lhs, rhs = _timed(point, product_parts, query, tol)
    primary = compose_ratio(lhs, rhs)
    records = [_cells(primary, {**point, "side": "closed"}),
               _cells(lhs, {**point, "side": "series"})]
    return records, _exit_code((), _missed(primary, tol))


def cmd_theta(args: argparse.Namespace, tol: Tolerance) -> tuple[list[dict], int]:
    record: dict[str, object] = {"record": "theta", "n": args.n, "q": args.q}
    res = _timed(record, psi, args.n, args.q, tol)
    _cells(res, record)
    return [record], _exit_code((), _missed(res, tol))


def _grid_points(args: argparse.Namespace, stock) -> tuple[
        tuple[tuple[int, complex], ...], tuple[Method, ...]]:
    if args.grid == "default":
        points = tuple((n, z) for n in stock.n_values for z in stock.z_points)
        return points, stock.methods
    return parse_grid_file(args.grid), ALL_METHODS


def _pair_record(record: str, pair: PairCheck) -> dict[str, object]:
    return {"record": record, "n": pair.n, "z": pair.z, "method": _TAGS[pair.method_a],
            "method_b": _TAGS[pair.method_b], "delta": pair.delta,
            "bound": pair.bound, "passed": pair.passed}


def cmd_verify(args: argparse.Namespace, tol: Tolerance) -> tuple[list[dict], int]:
    points, methods = _grid_points(args, DEFAULT_VERIFY_GRID)
    report = verify_points(points, methods, tol)
    records: list[dict] = [_cells(run, {"record": "verify-run", "n": run.n, "z": run.z,
                                        "passed": run.ok}) for run in report.runs]
    records += [_pair_record("verify-pair", pair) for pair in report.pairs]
    summary = report.summary
    last = _pair_record("verify-summary", summary.worst) if summary.worst else {
        "record": "verify-summary"}
    last.update(passed=report.all_pass, pairs_passed=summary.pairs_passed,
                pairs_total=summary.pairs_total, schema_version=SCHEMA_VERSION)
    records.append(last)
    return records, _exit_code(report.runs, not report.all_pass)


def cmd_bench(args: argparse.Namespace, tol: Tolerance) -> tuple[list[dict], int]:
    points, methods = _grid_points(args, DEFAULT_BENCH_GRID)
    runs = verify_points(points, methods, tol).runs
    records = [_cells(run, {"record": "bench", "n": run.n, "z": run.z,
                            "wall_time_ns": run.wall_time_ns}) for run in runs]
    return records, _exit_code(runs, False)


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
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI parser and its subcommands' parsers by name, built once per
    process and shared by every call: parsing leaves them unchanged, and
    building them costs more than most subcommands.  Do not modify them."""
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
    p.add_argument("--method", choices=(*(m.value for m in Method), "all"),
                   default="all", help="evaluation route (default all applicable)")
    p.set_defaults(handler=cmd_eval, base_tol=DEFAULT_TOLERANCE)

    p = sub.add_parser("zeta", parents=[common],
                       help="zeta(2n): series value plus limit-path diagnostic")
    p.add_argument("-n", type=_order_arg, required=True, help="zeta index (value is zeta(2n))")
    p.set_defaults(handler=cmd_zeta, base_tol=DEFAULT_TOLERANCE)

    p = sub.add_parser("product", parents=[common],
                       help="squared product ratio over 0 < x <= y < 1")
    p.add_argument("-n", type=_order_arg, required=True, help="series order")
    p.add_argument("-x", type=_float_arg, required=True, help="lower endpoint in (0,1)")
    p.add_argument("-y", type=_float_arg, required=True, help="upper endpoint in (0,1)")
    p.set_defaults(handler=cmd_product, base_tol=DEFAULT_TOLERANCE)

    p = sub.add_parser("theta", parents=[common],
                       help="theta series Psi_n(q) for nome q in (0,1)")
    p.add_argument("-n", type=_order_arg, required=True, help="theta index")
    p.add_argument("-q", type=_float_arg, required=True, help="nome in (0,1)")
    p.set_defaults(handler=cmd_theta, base_tol=DEFAULT_TOLERANCE)

    p = sub.add_parser("verify", parents=[common],
                       help="cross-method agreement report over a grid")
    p.add_argument("--grid", default="default",
                   help="'default' or a grid file of 'n <int> z <complex>' lines")
    p.set_defaults(handler=cmd_verify, base_tol=DEFAULT_VERIFY_GRID.tol)

    p = sub.add_parser("bench", parents=[common],
                       help="work and wall-time table over a grid")
    p.add_argument("--grid", default="default",
                   help="'default' or a grid file of 'n <int> z <complex>' lines")
    p.set_defaults(handler=cmd_bench, base_tol=DEFAULT_BENCH_GRID.tol)
    return parser, sub.choices



def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = build_parser()
    if argv and argv[0] in commands:
        # One parse, by the subcommand's parser as the top-level one would
        # call it; leftovers get the top-level error that parse_args gives.
        args, extra = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = parser.parse_args(argv)
    try:
        tol = resolve_tolerance(args, args.base_tol)
        records, code = args.handler(args, tol)
    except (_UsageError, DomainError, ToleranceError, ValueError) as exc:
        print(f"cotlattice: {exc}", file=sys.stderr)
        return EXIT_CODES[error_kind(exc)]
    try:
        _emit(records, args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (``cotlattice bench | head -1``): point
        # stdout at devnull so the interpreter's final flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def entry() -> None:
    """Console-script entry point."""
    sys.exit(main())
