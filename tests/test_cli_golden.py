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
import os
import re
from pathlib import Path

import pytest

from cotlattice.cli import COLUMNS, main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("plain", "csv", "json-lines")

#: Grid of domain edges: the even origin, a pole, an odd order, a
#: theta-domain miss, a power past the double range, a regular point.
EDGE_GRID = str(GOLDEN / "edge.grid")

#: name -> argv; each runs once per format.
CASES = {
    "verify": ["verify"],
    "bench": ["bench"],
    "eval": ["eval", "-n", "4", "-z", "1.0"],
    "product": ["product", "-n", "1", "-x", "0.25", "-y", "0.5"],
    "theta": ["theta", "-n", "1", "-q", "0.1"],
    "eval-pole": ["eval", "-n", "1", "-z", "2"],
    "eval-origin": ["eval", "-n", "2", "-z", "0"],
    "eval-tiny": ["eval", "-n", "4", "-z", "1e-200"],
    "eval-underflow": ["eval", "-n", "64", "-z", "1.0723265072253539e-05"],
    "eval-overflow": ["eval", "-n", "2", "-z", "1e308+1e308i", "--method", "direct"],
    "verify-edge": ["verify", "--grid", EDGE_GRID],
    "bench-edge": ["bench", "--grid", EDGE_GRID],
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
    prefixed ``stderr: ``, then stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err_lines = "".join(f"stderr: {line}\n" for line in err.getvalue().splitlines())
    return f"exit {code}\n" + err_lines + mask(out.getvalue(), argv[-1])


def _golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{fmt}.txt"


@pytest.fixture(autouse=True)
def isolated_config(monkeypatch, tmp_path):
    monkeypatch.delenv("COTLATTICE_CONFIG", raising=False)
    monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path / "xdg"))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_golden(name, fmt):
    expected = _golden_path(name, fmt).read_text()
    assert run(CASES[name] + ["--format", fmt]) == expected


if __name__ == "__main__":
    os.environ.pop("COTLATTICE_CONFIG", None)
    os.environ["XDG_CONFIG_HOME"] = os.devnull  # no config file is read
    GOLDEN.mkdir(exist_ok=True)
    for case, args in CASES.items():
        for f in FORMATS:
            _golden_path(case, f).write_text(run(args + ["--format", f]))
