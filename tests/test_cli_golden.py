"""Golden CLI output: stdout and exit code of fixed command lines, byte
for byte, with ``wall_time_ns`` masked.

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

#: name -> argv; each runs once per format.
CASES = {
    "verify": ["verify"],
    "bench": ["bench"],
    "eval": ["eval", "-n", "4", "-z", "1.0"],
    "product": ["product", "-n", "1", "-x", "0.25", "-y", "0.5"],
    "theta": ["theta", "-n", "1", "-q", "0.1"],
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
    """The masked golden text of one run: its exit code, then stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n" + mask(out.getvalue(), argv[-1])


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
