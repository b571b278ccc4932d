"""README's command-line examples show what the CLI prints.

Every ``$ cotlattice ...`` line of README runs in process, and each
field its example output shows must equal the field the command
prints.  ``...`` elides: a field's value (``key=...``), the fields
between two shown ones (a lone ``...`` cell or token), the rest of a
csv row (a last ``...`` cell), or whole records (a ``...`` line).
"""

import contextlib
import csv
import io
import shlex
from pathlib import Path

import pytest

from cotlattice.cli import main

README = Path(__file__).parent.parent / "README.md"


def examples():
    """(command line, shown output lines) of each README example."""
    found, lines = [], README.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("$ cotlattice "):
            shown = []
            for out in lines[i + 1:]:
                if not out or out.startswith(("$", "```")):
                    break
                shown.append(out)
            found.append((line[2:], shown))
    return found


def fields(line, fmt):
    """The (key, value) fields of a plain record, or the cells of a csv row."""
    if fmt == "csv":
        return list(enumerate(next(csv.reader([line]))))
    return [tuple(tok.split("=", 1)) if "=" in tok else (tok, None) for tok in line.split()]


def matches(shown, real, fmt):
    """Each field shown is in the real record, in order, with its value."""
    real_fields = fields(real, fmt)
    if fmt == "csv":
        cells = [cell for _, cell in fields(shown, fmt)]
        if "..." in cells:
            cells = cells[:cells.index("...")]
        return [cell for _, cell in real_fields[:len(cells)]] == cells
    values = dict(real_fields)
    keys = [key for key, _ in real_fields]
    pos = 0
    for key, value in fields(shown, fmt):
        if key == "...":
            continue
        if key not in values or keys.index(key) < pos:
            return False
        pos = keys.index(key)
        if value != "..." and values[key] != value:
            return False
    return True


EXAMPLES = examples()


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c.split("#")[0].strip() for c, _ in EXAMPLES])
def test_example_output(command, shown):
    argv = shlex.split(command, comments=True)[1:]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "plain"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    real = out.getvalue().splitlines()
    pos = 0
    skip = False
    for line in shown:
        if line == "...":
            skip = True
            continue
        while skip and pos < len(real) and not matches(line, real[pos], fmt):
            pos += 1
        assert pos < len(real), (command, line)
        assert matches(line, real[pos], fmt), (command, line, real[pos])
        pos, skip = pos + 1, False
    assert skip or pos == len(real), (command, real[pos:])
