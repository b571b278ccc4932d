"""Golden CLI output: exit code, stderr and stdout of fixed command
lines, byte for byte, with ``wall_time_ns`` masked.

A change that means to keep the CLI's output as it is proves it here.
To record new goldens after an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of ``tests/golden/``.
"""

import contextlib
import csv
import io
import re
import warnings
from pathlib import Path

import pytest

from cotlattice.cli import COLUMNS, main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("plain", "csv", "json-lines")

#: Grid of domain edges: the even origin, a pole, an odd order, a
#: theta-domain miss, a power past the double range, a regular point.
EDGE_GRID = str(GOLDEN / "edge.grid")
#: Grid of the route mix the crosscheck benchmark times (see the file).
CROSSCHECK_GRID = str(GOLDEN / "crosscheck.grid")

#: name -> argv; each runs once per format.
CASES = {
    "verify": ["verify"],
    "bench": ["bench"],
    "eval": ["eval", "-n", "4", "-z", "1.0"],
    "product": ["product", "-n", "1", "-x", "0.25", "-y", "0.5"],
    "theta": ["theta", "-n", "1", "-q", "0.1"],
    "zeta": ["zeta", "-n", "2"],
    "eval-pole": ["eval", "-n", "1", "-z", "2"],
    "eval-origin": ["eval", "-n", "2", "-z", "0"],
    "eval-tiny": ["eval", "-n", "4", "-z", "1e-200"],
    "eval-underflow": ["eval", "-n", "64", "-z", "1.0723265072253539e-05"],
    "eval-overflow": ["eval", "-n", "2", "-z", "1e308+1e308i", "--method", "direct"],
    "eval-theta-huge": ["eval", "-n", "2", "-z", "1e154", "--method", "theta"],
    "verify-edge": ["verify", "--grid", EDGE_GRID],
    "bench-edge": ["bench", "--grid", EDGE_GRID],
    "verify-crosscheck": ["verify", "--grid", CROSSCHECK_GRID],
}

_WALL = COLUMNS.index("wall_time_ns")


def mask(text: str, fmt: str) -> str:
    """Replace every wall_time_ns value by '*'."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        for row in rows[1:]:
            if row[_WALL]:
                row[_WALL] = "*"
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()
    return re.sub(r'(wall_time_ns"?[=:] ?)\d+', r"\1*", text)


def run(argv: list[str]) -> str:
    """The masked golden text of one run: its exit code, each stderr line
    prefixed ``stderr: ``, then stdout.  A warning counts as a stderr
    line ``Category: message``: outside pytest, which records warnings
    instead, it prints to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    err_lines = "".join(f"stderr: {line}\n" for line in err.getvalue().splitlines())
    return f"exit {code}\n" + err_lines + mask(out.getvalue(), argv[-1])


def _golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{fmt}.txt"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_golden(name, fmt):
    expected = _golden_path(name, fmt).read_text()
    assert run(CASES[name] + ["--format", fmt]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, args in CASES.items():
        for f in FORMATS:
            _golden_path(case, f).write_text(run(args + ["--format", f]))
