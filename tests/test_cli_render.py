"""Property: the CLI's record renderer spells every record as the
straightforward reference below does, byte for byte.

The reference renders each record on its own: ``json.dumps`` of the set
columns in ``COLUMNS`` order (z as its text) for json-lines, ``key=value``
cells with ``error`` JSON-quoted for plain, and a ``csv.writer`` row of
every column for csv.  Records draw random column subsets in random key
order; floats include the extremes and non-finite values, strings quotes,
backslashes, control characters and non-ASCII text, and records share z
objects, some of which compare equal but print differently (+-0.0).
"""

import csv
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from cotlattice.cli import COLUMNS, _emit

STRS = ("record", "side", "method", "method_b", "error")
INTS = ("n", "work", "wall_time_ns", "pairs_passed", "pairs_total", "schema_version")
FLOATS = ("x", "y", "q", "value_re", "value_im", "err_estimate", "delta", "bound")

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
           float("nan"), float("inf"), float("-inf"), 0.1, 1e16, 1e-7]
FLOAT = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
TEXT = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('"\\\n\r\t\x00\x1f\x7f, =é€ \U0001f600ab'),
            max_size=12))
VALUE = {**{c: TEXT for c in STRS}, **{c: st.integers() for c in INTS},
         **{c: FLOAT for c in FLOATS}, "passed": st.booleans()}


def ref_complex(z):
    re_part = "%.17g" % z.real
    if z.imag == 0.0:
        return re_part
    im = "%.17g" % z.imag
    return re_part + ("" if im.startswith("-") else "+") + im + "i"


def ref_cell(col, v):
    if col == "z":
        return ref_complex(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def reference(records, fmt):
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows([ref_cell(c, r[c]) if c in r else "" for c in COLUMNS]
                         for r in records)
        return out.getvalue()
    lines = []
    for r in records:
        cols = [c for c in COLUMNS if c in r]
        if fmt == "json-lines":
            lines.append(json.dumps({c: ref_complex(r[c]) if c == "z" else r[c] for c in cols}))
        else:
            lines.append(" ".join(
                f"{c}={json.dumps(r[c]) if c == 'error' else ref_cell(c, r[c])}" for c in cols))
    return "".join(line + "\n" for line in lines)


@st.composite
def record_lists(draw):
    # z objects are drawn from a small pool, so that consecutive records
    # share one object or hold distinct equal ones
    pool = draw(st.lists(st.one_of(
        st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, 1.0), complex(-0.0, 1.0),
                         complex(1.5, -0.0), complex(-2.5, 1e-300)]),
        st.builds(complex, FLOAT, FLOAT)), min_size=1, max_size=3))
    records = []
    for _ in range(draw(st.integers(0, 6))):
        cols = draw(st.lists(st.sampled_from(COLUMNS), unique=True))
        records.append({c: draw(st.sampled_from(pool)) if c == "z" else draw(VALUE[c])
                        for c in cols})
    return records


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(record_lists())
def test_renderer_matches_reference(records):
    for fmt in ("plain", "csv", "json-lines"):
        out = io.StringIO()
        _emit(records, fmt, out)
        assert out.getvalue() == reference(records, fmt), fmt


@pytest.mark.parametrize("delta, bound, spelled", [
    (float("inf"), float("nan"), ("Infinity", "NaN", "inf", "nan")),
    (0.25, float("-inf"), ("0.25", "-Infinity", "0.25", "-inf")),
])
def test_nonfinite_pair_cells(delta, bound, spelled):
    # A pair's delta and bound are the only cells of verify that can leave
    # the finite doubles: json-lines spells them as json.dumps does, plain
    # and csv as %.17g.
    record = {"record": "verify-pair", "n": 2, "z": 0.5j, "method": "closed",
              "method_b": "theta", "delta": delta, "bound": bound, "passed": False}
    json_delta, json_bound, g_delta, g_bound = spelled
    texts = {}
    for fmt in ("plain", "csv", "json-lines"):
        out = io.StringIO()
        _emit([record], fmt, out)
        texts[fmt] = out.getvalue()
        assert texts[fmt] == reference([record], fmt), fmt
    assert f'"delta": {json_delta}, "bound": {json_bound},' in texts["json-lines"]
    assert f"delta={g_delta} bound={g_bound} " in texts["plain"]
    assert f",{g_delta},{g_bound}," in texts["csv"]
