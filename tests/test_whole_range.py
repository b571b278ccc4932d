"""Every route over the whole double range: a value or a CotlatticeError.

A seeded hypothesis property draws z with parts spread log-uniformly over
every finite double, subnormals and both parts near the top of the range
included, where |z| exceeds 1.8e308 though both parts are finite.  Each
route, and ``eval`` and ``verify`` through ``cli.main``, must then return
a value or raise (or, in the CLI, report) a CotlatticeError; no other
exception may escape.
"""

import contextlib
import io
import math
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from cotlattice import CotlatticeError, Tolerance, phi, u_closed, u_direct, u_theta
from cotlattice.cli import main

WHOLE_RANGE = hypothesis.settings(max_examples=150, derandomize=True, database=None,
                                  deadline=None)
#: A small budget: the property is about which exceptions escape, not values.
BUDGET = Tolerance(max_terms=20_000, max_nodes=2_000)


@st.composite
def parts(draw):
    """A finite double: 0, or a sign times 2^e with e over the whole
    exponent range, subnormals included, often next to the top."""
    kind = draw(st.sampled_from(("zero", "any", "top")))
    if kind == "zero":
        return 0.0
    if kind == "top":
        mag = draw(st.floats(1e307, 1.7976931348623157e308))
    else:
        mag = 2.0 ** draw(st.floats(-1074.0, 1023.99))
    return math.copysign(mag, draw(st.sampled_from((-1.0, 1.0))))


def _route_calls(n, z):
    yield lambda: u_direct(n, z, BUDGET)
    yield lambda: u_closed(n, z, BUDGET)
    yield lambda: u_theta(n, z, BUDGET)
    if n <= 10:
        yield lambda: phi(n, z, BUDGET)


@WHOLE_RANGE
@hypothesis.given(n=st.sampled_from((1, 2, 3, 4, 7, 16)), re=parts(), im=parts())
def test_routes_return_a_value_or_a_package_error(n, re, im):
    z = complex(re, im)
    for call in _route_calls(n, z):
        try:
            call()
        except CotlatticeError:
            pass


@WHOLE_RANGE
@hypothesis.given(n=st.sampled_from((1, 2, 3, 4)), re=parts(), im=parts())
def test_cli_reports_a_record_or_a_package_error(n, re, im):
    z = f"{re!r}{im:+.17g}i"
    limits = ["--max-terms", "20000", "--max-nodes", "2000"]
    with tempfile.TemporaryDirectory() as tmp:
        grid = os.path.join(tmp, "points.grid")
        with open(grid, "w") as fh:
            fh.write(f"n {n} z {z}\n")
        for argv in (["eval", "-n", str(n), f"-z={z}", "--method", "all", *limits],
                     ["verify", "--grid", grid, *limits]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2), argv


@pytest.mark.parametrize("n, code", [(1, 1), (2, 2)])
def test_modulus_past_double_range_prints_records(n, code, capsys):
    # Both parts are doubles, |z| = 2.4e308 is not.  n = 1: direct's cutoff
    # exceeds the budget, closed gives -i pi; n = 2: z^2 leaves the range
    # for direct, closed and dyadic give pi / z, subnormal.
    assert main(["eval", "-n", str(n), "-z", "1.7e308+1.7e308i", "--method", "all"]) == code
    out, err = capsys.readouterr()
    assert out.count("record=eval") == 2 + (n == 2) and not err
    assert "method=closed value_re=" in out


def test_verify_grid_past_double_range_prints_records(tmp_path, capsys):
    grid = tmp_path / "top.grid"
    grid.write_text("n 2 z 1.7e308+1.7e308i\n")
    assert main(["verify", "--grid", str(grid)]) == 2
    out, err = capsys.readouterr()
    assert "record=verify-summary" in out and not err
