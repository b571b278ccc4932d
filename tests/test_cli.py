"""Tests for the command-line interface: parsing, formats, exit codes."""

import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cotlattice
from cotlattice import u_closed, u_theta
from cotlattice.cli import (
    COLUMNS,
    format_complex,
    main,
    parse_complex,
    parse_grid_file,
)
from psi_oracle import log_nome, psi_ref


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def parse_plain(line):
    """Decode one plain-format record into a dict of strings."""
    return dict(token.split("=", 1) for token in shlex.split(line))


class TestParseComplex:
    """The CLI accepts exactly the documented complex syntax."""

    def test_forms(self):
        assert parse_complex("2") == 2 + 0j
        assert parse_complex("-0.5") == -0.5 + 0j
        assert parse_complex("1.5+2i") == 1.5 + 2j
        assert parse_complex("1.5-2i") == 1.5 - 2j
        assert parse_complex("1e-3-2.5e2i") == 1e-3 - 250j
        assert parse_complex(".5+.25i") == 0.5 + 0.25j

    def test_rejections(self):
        for bad in ("1+i", "i", "2i", "1 + 2i", "1+2j", "nan", "inf", "", "abc",
                    "1e400", "1+1e400i"):
            with pytest.raises(ValueError):
                parse_complex(bad)

    def test_round_trip(self):
        for z in (0.3 + 0j, -2.0 + 0j, 1 + 2j, 1 - 2j, 0.1 + 0.2j, -0.25 - 1e-3j):
            assert parse_complex(format_complex(z)) == z

    def test_real_renders_without_i(self):
        assert "i" not in format_complex(0.75 + 0j)


class TestGridFiles:
    """Grid files list explicit (n, z) pairs."""

    def test_parse(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# heading\nn 4 z 1\n\nn 3 z 0.5+0.5i # trailing\n")
        assert parse_grid_file(str(p)) == ((4, 1 + 0j), (3, 0.5 + 0.5j))

    def test_bad_syntax_exits_2(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("n 4 w 1\n")
        code, out, err = run_cli(["verify", "--grid", str(p)], capsys)
        assert code == 2
        assert "g.txt:1" in err

    def test_empty_exits_2(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("# nothing\n")
        code, out, err = run_cli(["verify", "--grid", str(p)], capsys)
        assert code == 2

    @pytest.mark.parametrize("arg, message", [
        ("./missing.grid", "[Errno 2] No such file or directory: 'missing.grid'"),
        (".//missing.grid", "[Errno 2] No such file or directory: 'missing.grid'"),
        ("sub", "[Errno 21] Is a directory: 'sub'"),
        ("./sub/", "[Errno 21] Is a directory: 'sub'"),
    ])
    def test_unreadable_file_message(self, monkeypatch, tmp_path, capsys, arg, message):
        # The file is named without ./ or doubled slashes, as pathlib spells it.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code, out, err = run_cli(["verify", "--grid", arg], capsys)
        assert (code, out, err) == (2, [], f"cotlattice: grid: {message}\n")

    def test_bad_line_message_keeps_the_path_as_given(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.txt").write_text("n 4 w 1\n")
        code, out, err = run_cli(["verify", "--grid", ".//g.txt"], capsys)
        assert err == ("cotlattice: grid: .//g.txt:1: expected 'n <int> z <complex>', "
                       "got 'n 4 w 1'\n")

    def test_undecodable_file_message(self, monkeypatch, tmp_path, capsys):
        # UTF-8 whatever the locale, and the message names the layer and the file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g").write_bytes(b"n 4 z 0.7\xff\n")
        code, out, err = run_cli(["verify", "--grid", "g"], capsys)
        assert (code, out, err) == (2, [], "cotlattice: grid: g: 'utf-8' codec can't decode "
                                           "byte 0xff in position 9: invalid start byte\n")

    @pytest.mark.parametrize("line, message", [
        ("n 0 z 1", "order must be >= 1, got 0"),
        ("n two z 1", "invalid literal for int() with base 10: 'two'"),
        ("n 2 z 1+", "expected a complex number as 'a', 'a+bi', or 'a-bi' "
                     "(no whitespace), got '1+'"),
        ("n 2 z 1e400", "expected a finite complex number, got '1e400'"),
    ])
    def test_bad_value_message(self, monkeypatch, tmp_path, capsys, line, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.txt").write_text(f"n 4 z 1\n{line}\n")
        code, out, err = run_cli(["verify", "--grid", "g.txt"], capsys)
        assert (code, out, err) == (2, [], f"cotlattice: grid: g.txt:2: {message}\n")


class TestEval:
    """eval emits one record per method and meaningful exit codes."""

    def test_closed_value(self, capsys):
        code, out, err = run_cli(["eval", "-n", "1", "-z", "0.3",
                                  "--method", "closed"], capsys)
        assert code == 0
        rec = parse_plain(out[0])
        assert rec["record"] == "eval" and rec["method"] == "closed"
        exact = math.pi / math.tan(0.3 * math.pi)
        assert abs(float(rec["value_re"]) - exact) < 1e-10

    def test_all_methods_at_power_of_two(self, capsys):
        code, out, err = run_cli(["eval", "-n", "4", "-z", "1"], capsys)
        assert code == 0
        methods = {parse_plain(line)["method"] for line in out}
        assert methods == {"direct", "closed", "dyadic", "theta"}

    def test_origin_even_is_domain_error(self, capsys):
        code, out, err = run_cli(["eval", "-n", "2", "-z", "0"], capsys)
        assert code == 2
        assert out == []
        assert "z=0 excluded for even n" in err

    def test_pole_is_domain_error(self, capsys):
        code, out, err = run_cli(["eval", "-n", "1", "-z", "2"], capsys)
        assert code == 2
        assert "pole" in err

    def test_tiny_argument_is_not_a_pole(self, capsys):
        code, out, err = run_cli(["eval", "-n", "2", "-z", "1e-8",
                                  "--method", "closed"], capsys)
        assert code == 0, err
        assert float(parse_plain(out[0])["value_re"]) == pytest.approx(1e16, rel=1e-14)

    def test_near_integer_is_domain_error(self, capsys):
        code, out, err = run_cli(["eval", "-n", "1", "-z", "1.00000000000001"], capsys)
        assert code == 2

    def test_method_order_mismatch(self, capsys):
        code, out, err = run_cli(["eval", "-n", "3", "-z", "0.5",
                                  "--method", "dyadic"], capsys)
        assert code == 2
        code, out, err = run_cli(["eval", "-n", "3", "-z", "0.5",
                                  "--method", "theta"], capsys)
        assert code == 2

    def test_budget_miss_is_exit_1(self, capsys):
        # 20 terms are fewer than the 2 K0 + 1 = 33 of the starting cutoff.
        code, out, err = run_cli(["eval", "-n", "1", "-z", "0.5",
                                  "--method", "direct", "--max-terms", "20"],
                                 capsys)
        assert code == 1
        rec = parse_plain(out[0])
        assert "max_terms" in rec["error"]

    def test_overflowing_power_is_domain_error(self, capsys):
        # z^2 overflows; that is reported before the cutoff exceeds the budget.
        code, out, err = run_cli(["eval", "-n", "2", "-z", "1e308+1e308i",
                                  "--method", "direct"], capsys)
        assert code == 2
        assert "z^2 leaves double range" in parse_plain(out[0])["error"]

    def test_direct_at_top_of_double_range(self, capsys):
        # z^195 ~ -8.7e307, where 38^195 + |z^195| overflows, and z^195 =
        # -1e308, where -2 z^195 overflows too.
        for z in ("-37.947359624453796", "-37.97407287373919"):
            code, out, err = run_cli(["eval", "-n", "195", "-z", z,
                                      "--method", "direct"], capsys)
            assert code == 0
            assert "error" not in parse_plain(out[0])

    def test_closed_term_past_double_range_is_domain_error(self, capsys):
        code, out, err = run_cli(["eval", "-n", "1", "-z", "1.2e-309+1.2e-309i",
                                  "--method", "closed"], capsys)
        assert code == 2
        assert "exceeds double range" in parse_plain(out[0])["error"]
        assert "Traceback" not in err

    def test_huge_cutoff_is_printed_short(self, capsys):
        code, out, err = run_cli(["eval", "-n", "2", "-z", "1e100",
                                  "--method", "direct"], capsys)
        assert code == 1
        assert "starting cutoff K=2e+100 already exceeds max_terms=10000000" in \
            parse_plain(out[0])["error"]

    def test_cutoff_past_double_range_is_exit_1(self, tmp_path, capsys):
        # K0 = 2 ceil(|z|) ~ 2.06e308 is past the double range: an error record,
        # not a traceback, in eval and in a verify grid
        code, out, err = run_cli(["eval", "-n", "1", "-z", "9.86e307+3.05e307i",
                                  "--method", "direct"], capsys)
        assert code == 1
        assert "Traceback" not in err
        assert ("starting cutoff K=2.06e+308 already exceeds max_terms=10000000"
                in parse_plain(out[0])["error"])
        grid = tmp_path / "g.txt"
        grid.write_text("n 1 z 9.86e307+3.05e307i\n")
        code, out, err = run_cli(["verify", "--grid", str(grid)], capsys)
        assert "Traceback" not in err
        assert parse_plain(out[-1])["record"] == "verify-summary"
        direct = [parse_plain(line) for line in out if "method=direct" in line]
        assert "starting cutoff K=2.06e+308" in direct[0]["error"]

    def test_theta_at_large_z(self, capsys):
        # Nodes next to t = 0 take Poisson's lead, where the series would need ~6.5e7 terms.
        code, out, err = run_cli(["eval", "-n", "4", "-z", "1e5", "--method", "theta"], capsys)
        assert code == 0, err
        rec = parse_plain(out[0])
        assert "error" not in rec
        assert float(rec["value_re"]) == pytest.approx(2.221441469079183e-15, rel=1e-12)

    @pytest.mark.parametrize("n, z", [(2, "70.721784453596442+70.69957003899701i"),
                                      (4, "9.2390958554827343+3.8261086985606898i")])
    def test_theta_with_small_real_power_meets_target(self, n, z, capsys):
        # Re z^n is small against |z^n|: the upper piece's terms divide by
        # |z^n + k^n|, the bound it charges by Re z^n + k^n, so it must stop
        # on that bound (a bar of ~5.2e-10 against the 1e-10 target before).
        code, out, err = run_cli(["eval", "-n", str(n), "-z", z, "--method", "theta"], capsys)
        assert code == 0, out
        rec = parse_plain(out[0])
        value = complex(float(rec["value_re"]), float(rec["value_im"]))
        assert abs(value - u_closed(n, parse_complex(z)).value) <= float(rec["err_estimate"])

    def test_bad_complex_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "-n", "1", "-z", "1+i"])
        assert exc.value.code == 2

    def test_zero_tolerances_rejected(self, capsys):
        code, out, err = run_cli(["eval", "-n", "1", "-z", "0.3",
                                  "--abs-tol", "0", "--rel-tol", "0"], capsys)
        assert code == 2


class TestFormats:
    """All three formats carry the same record content."""

    def test_csv_header_and_values(self, capsys):
        code, out, err = run_cli(["eval", "-n", "2", "-z", "0.7",
                                  "--method", "closed", "--format", "csv"],
                                 capsys)
        assert code == 0
        assert out[0] == ",".join(COLUMNS)
        rows = list(csv.DictReader(io.StringIO("\n".join(out))))
        assert len(rows) == 1
        exact = (math.pi / 0.7) / math.tanh(math.pi * 0.7)
        assert abs(float(rows[0]["value_re"]) - exact) < 1e-10
        assert rows[0]["x"] == ""

    def test_json_lines(self, capsys):
        code, out, err = run_cli(["eval", "-n", "2", "-z", "0.5+0.5i",
                                  "--method", "closed", "--format",
                                  "json-lines"], capsys)
        assert code == 0
        obj = json.loads(out[0])
        assert obj["record"] == "eval"
        assert obj["z"] == "0.5+0.5i"
        assert set(obj) <= set(COLUMNS)
        assert isinstance(obj["value_re"], float)

    def test_formats_agree(self, capsys):
        args = ["eval", "-n", "3", "-z", "0.4", "--method", "closed"]
        _, plain_out, _ = run_cli(args + ["--format", "plain"], capsys)
        _, json_out, _ = run_cli(args + ["--format", "json-lines"], capsys)
        plain_rec = parse_plain(plain_out[0])
        json_rec = json.loads(json_out[0])
        assert float(plain_rec["value_re"]) == json_rec["value_re"]
        assert float(plain_rec["err_estimate"]) == json_rec["err_estimate"]


class TestZetaCommand:
    """zeta reports the series value and the limit diagnostic."""

    def test_two_sides(self, capsys):
        code, out, err = run_cli(["zeta", "-n", "1"], capsys)
        assert code == 0
        recs = [parse_plain(line) for line in out]
        assert [r["side"] for r in recs] == ["series", "limit"]
        assert abs(float(recs[0]["value_re"]) - math.pi**2 / 6.0) < 1e-10

    def test_limit_never_gates(self, capsys):
        # An abs_tol below the limit side's bar does not gate the exit
        # code; the series side still meets it.
        code, out, err = run_cli(["zeta", "-n", "8", "--abs-tol", "5e-15",
                                  "--rel-tol", "0"], capsys)
        assert code == 0
        limit = parse_plain(out[1])
        assert limit["side"] == "limit" and limit["method"] == "closed"
        assert float(limit["err_estimate"]) > 5e-15
        assert abs(float(limit["value_re"]) - 1.0000152822594086) <= 1e-13
        assert limit["work"] == str(32 * 16)

    def test_tolerance_error_exits_1(self, capsys):
        code, out, err = run_cli(["zeta", "-n", "1", "--abs-tol", "0", "--rel-tol", "1e-17",
                                  "--max-terms", "40"], capsys)
        assert (code, out) == (1, [])
        assert err == ("cotlattice: zeta tail bound 5.59e-13 above target/4 = 4.11e-18 "
                       "at cutoff 32 with max_terms=40\n")


class TestProductCommand:
    """product reports the closed ratio and the series cross-check."""

    def test_values(self, capsys):
        code, out, err = run_cli(["product", "-n", "1", "-x", "0.25",
                                  "-y", "0.5", "--abs-tol", "1e-6"], capsys)
        assert code == 0
        recs = [parse_plain(line) for line in out]
        assert [r["side"] for r in recs] == ["closed", "series"]
        assert abs(float(recs[0]["value_re"]) - 2.0) < 1e-8

    def test_stock_defaults_meet_tolerance(self, capsys):
        # The corrected series tail certifies the default 1e-10 target.
        code, out, err = run_cli(["product", "-n", "1", "-x", "0.25",
                                  "-y", "0.5"], capsys)
        assert code == 0
        rec = parse_plain(out[0])
        assert abs(float(rec["value_re"]) - 2.0) <= float(rec["err_estimate"])

    def test_degenerate_is_exact(self, capsys):
        code, out, err = run_cli(["product", "-n", "1", "-x", "0.5",
                                  "-y", "0.5"], capsys)
        assert code == 0
        rec = parse_plain(out[0])
        assert float(rec["value_re"]) == 1.0
        assert float(rec["err_estimate"]) == 0.0

    def test_reversed_endpoints(self, capsys):
        code, out, err = run_cli(["product", "-n", "1", "-x", "0.7",
                                  "-y", "0.2"], capsys)
        assert code == 2


class TestThetaCommand:
    """theta evaluates Psi_n(q)."""

    def test_value(self, capsys):
        # t = -log 0.1 < pi: Jacobi's dual, its terms k <= 3; Psi_1(0.1) =
        # 1.20020000200000021..., half an ulp below the value.
        code, out, err = run_cli(["theta", "-n", "1", "-q", "0.1"], capsys)
        assert code == 0
        rec = parse_plain(out[0])
        assert float(rec["value_re"]) == 1.2002000020000003
        assert rec["work"] == "7"
        assert abs(float(rec["value_re"]) - psi_ref(1, log_nome(0.1))) <= float(rec["err_estimate"])

    def test_bad_nome(self, capsys):
        code, out, err = run_cli(["theta", "-n", "1", "-q", "1.5"], capsys)
        assert code == 2

    def test_budget_miss_exits_1(self, capsys):
        code, out, err = run_cli(["theta", "-n", "1", "-q", "0.04",
                                  "--max-terms", "4"], capsys)
        assert (code, out) == (1, [])
        assert err == ("cotlattice: psi(n=1, q=0.04): 7 terms exceed max_terms=4 "
                       "before meeting tolerance\n")

    def test_nome_next_to_one_sums_the_dual(self, capsys):
        # t = 1e-14: the direct series would need ~1.8e7 terms, over the
        # default budget; Jacobi's dual needs none past its leading 1.
        code, out, err = run_cli(["theta", "-n", "1", "-q", "0.99999999999999"], capsys)
        assert code == 0
        rec = parse_plain(out[0])
        ref = psi_ref(1, log_nome(0.99999999999999))
        assert abs(float(rec["value_re"]) - ref) <= float(rec["err_estimate"])
        assert rec["work"] == "1"


class TestVerifyCommand:
    """verify emits runs, pairs, and a gating summary."""

    def test_default_grid_passes(self, capsys):
        code, out, err = run_cli(["verify", "--grid", "default"], capsys)
        assert code == 0
        summary = parse_plain(out[-1])
        assert summary["record"] == "verify-summary"
        assert summary["passed"] == "true"
        assert summary["pairs_passed"] == "50"
        assert summary["pairs_total"] == "50"
        assert summary["schema_version"] == "1"

    def test_file_grid(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("n 4 z 1\n")
        code, out, err = run_cli(["verify", "--grid", str(p)], capsys)
        assert code == 0
        kinds = [parse_plain(line)["record"] for line in out]
        assert kinds.count("verify-run") == 4
        assert kinds.count("verify-pair") == 6
        assert kinds[-1] == "verify-summary"

    def test_theta_bar_holds_at_a_good_point(self, tmp_path, capsys):
        # Kronrod's estimate claimed 6.59e-13 here for an error of 3.35e-12, and
        # two pairs with theta failed at 1e-10: the certified bar holds.
        p = tmp_path / "g.txt"
        p.write_text("n 6 z 1.4469644263943393+0.23662103121751407i\n")
        code, out, err = run_cli(["verify", "--grid", str(p), "--abs-tol", "1e-10",
                                  "--rel-tol", "1e-10"], capsys)
        assert code == 0, out
        summary = parse_plain(out[-1])
        assert (summary["pairs_passed"], summary["pairs_total"]) == ("3", "3")

    def test_domain_failures_exit_2(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("n 2 z 0\n")
        code, out, err = run_cli(["verify", "--grid", str(p)], capsys)
        assert code == 2
        runs = [parse_plain(line) for line in out
                if parse_plain(line)["record"] == "verify-run"]
        assert all(r["passed"] == "false" for r in runs)


class TestBenchCommand:
    """bench tabulates work and wall time."""

    def test_file_grid(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("n 4 z 1\nn 3 z 0.5\n")
        code, out, err = run_cli(["bench", "--grid", str(p)], capsys)
        assert code == 0
        recs = [parse_plain(line) for line in out]
        assert all(r["record"] == "bench" for r in recs)
        assert len(recs) == 6
        assert all(int(r["wall_time_ns"]) > 0 for r in recs)

    def test_closed_pipe_is_quiet(self):
        # The reader is gone before the first record, as when `head -1`
        # has its line: no traceback, and the exit code is the table's.
        src = str(Path(cotlattice.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
        proc = subprocess.Popen([sys.executable, "-m", "cotlattice", "bench"], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""


class TestRepeatedMain:
    """main builds its parser once per process; no run leaks into the next."""

    def test_second_run_uses_its_own_flags(self, capsys):
        # At n = 2 one first round of 60 nodes meets both targets; n = 4 needs more for the stock one.
        argv = ["eval", "-n", "4", "-z", "0.7", "--method", "theta"]
        code, out, err = run_cli(argv + ["--format", "csv", "--abs-tol", "1e-3"], capsys)
        assert code == 0
        assert out[0] == ",".join(COLUMNS)
        loose = next(csv.DictReader(io.StringIO("\n".join(out))))
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        rec = parse_plain(out[0])
        stock = u_theta(2, 0.7)
        assert int(rec["work"]) == stock.work > int(loose["work"])
        assert float(rec["err_estimate"]) == stock.err_estimate


class TestCommandLineOnly:
    """A record depends on its command line alone."""

    def test_config_file_and_environment_are_ignored(self, tmp_path, monkeypatch, capsys):
        # The 400,005-term sum's ~4.4e-10 bound misses the stock 1e-10
        # target (exit 1); an abs_tol of 1 taken from a file would meet it.
        argv = ["eval", "-n", "1", "-z", "100000.5", "--method", "direct"]

        def run():
            code, out, err = run_cli(argv, capsys)
            return code, [re.sub(r"wall_time_ns=\d+", "wall_time_ns=", line) for line in out], err

        monkeypatch.delenv("COTLATTICE_CONFIG", raising=False)
        monkeypatch.delenv("XDG_CONFIG_HOME", raising=False)
        clean = run()
        cfg = tmp_path / "xdg" / "cotlattice" / "config.json"
        cfg.parent.mkdir(parents=True)
        cfg.write_text('{"abs_tol": 1}')
        monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path / "xdg"))
        monkeypatch.setenv("COTLATTICE_CONFIG", str(tmp_path / "absent.json"))
        assert run() == clean
        assert clean[0] == 1 and len(clean[1]) == 1


#: The cells a successful run carries, and those of a failed one.
RESULT = {"method", "value_re", "value_im", "err_estimate", "work"}
FAILED = {"method", "error"}
PAIR = {"n", "z", "method", "method_b", "delta", "bound", "passed"}
SUMMARY = {"passed", "pairs_passed", "pairs_total", "schema_version"}

#: (argv, grid file text, exit code, {(record, non-empty columns)}).
RECORD_CASES = [
    # direct misses its 20-term budget, closed succeeds
    (["eval", "-n", "1", "-z", "0.5", "--max-terms", "20"], None, 1, {
        ("eval", frozenset({"record", "n", "z", "wall_time_ns"} | RESULT)),
        ("eval", frozenset({"record", "n", "z", "wall_time_ns"} | FAILED)),
    }),
    (["zeta", "-n", "1"], None, 0, {
        ("zeta", frozenset({"record", "n", "side", "wall_time_ns"} | RESULT)),
    }),
    # the limit side's contour nodes stay on |z^400| = 1/2
    (["zeta", "-n", "200"], None, 0, {
        ("zeta", frozenset({"record", "n", "side", "wall_time_ns"} | RESULT)),
    }),
    (["product", "-n", "1", "-x", "0.25", "-y", "0.5"], None, 0, {
        ("product", frozenset({"record", "n", "x", "y", "side", "wall_time_ns"} | RESULT)),
    }),
    (["theta", "-n", "1", "-q", "0.1"], None, 0, {
        ("theta", frozenset({"record", "n", "q", "wall_time_ns"} | RESULT)),
    }),
    (["verify"], "n 1 z 0.5\nn 2 z 0\n", 2, {
        ("verify-run", frozenset({"record", "n", "z", "passed"} | RESULT)),
        ("verify-run", frozenset({"record", "n", "z", "passed"} | FAILED)),
        ("verify-pair", frozenset({"record"} | PAIR)),
        ("verify-summary", frozenset({"record"} | PAIR | SUMMARY)),
    }),
    (["verify"], "n 2 z 0\n", 2, {
        ("verify-run", frozenset({"record", "n", "z", "passed"} | FAILED)),
        ("verify-summary", frozenset({"record"} | SUMMARY)),
    }),
    (["bench"], "n 1 z 0.5\nn 2 z 0\n", 2, {
        ("bench", frozenset({"record", "n", "z", "wall_time_ns"} | RESULT)),
        ("bench", frozenset({"record", "n", "z", "wall_time_ns"} | FAILED)),
    }),
]


def _same_cell(text, native):
    """A plain or csv cell decodes to the json-lines value."""
    if isinstance(native, bool):
        return text == ("true" if native else "false")
    if isinstance(native, (int, float)):
        return float(text) == native
    return text == native


class TestRecordColumns:
    """Each record type carries its own set of columns, the same in all
    three formats."""

    @pytest.mark.parametrize("argv, grid, code, expected", RECORD_CASES)
    def test_columns(self, tmp_path, capsys, argv, grid, code, expected):
        if grid is not None:
            path = tmp_path / "grid.txt"
            path.write_text(grid)
            argv = argv + ["--grid", str(path)]
        decoded = {}
        for fmt in ("plain", "csv", "json-lines"):
            got, out, err = run_cli(argv + ["--format", fmt], capsys)
            assert got == code, err
            if fmt == "plain":
                decoded[fmt] = [parse_plain(line) for line in out]
            elif fmt == "csv":
                assert out[0] == ",".join(COLUMNS)
                decoded[fmt] = [{c: v for c, v in row.items() if v != ""}
                                for row in csv.DictReader(io.StringIO("\n".join(out)))]
            else:
                decoded[fmt] = [json.loads(line) for line in out]
        kinds = {(r["record"], frozenset(r)) for r in decoded["json-lines"]}
        assert kinds == expected
        for text_fmt in ("plain", "csv"):
            assert len(decoded[text_fmt]) == len(decoded["json-lines"])
            for rec, native in zip(decoded[text_fmt], decoded["json-lines"]):
                assert list(rec) == list(native)
                assert all(_same_cell(rec[c], native[c]) for c in native
                           if c != "wall_time_ns")
