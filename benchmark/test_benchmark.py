"""Self-tests of the benchmark harness.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

import cotlattice as pkg  # noqa: E402
from cotlattice import cli  # noqa: E402

COUNTERS = ("closed.kernel_terms", "direct.terms", "quadrature.nodes", "dyadic.base_calls")


@pytest.fixture(autouse=True)
def no_user_config(tmp_path, monkeypatch):
    monkeypatch.delenv("COTLATTICE_CONFIG", raising=False)
    monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path / "no-config"))


def inputs(workload: str, seed: int, tmp: Path):
    ops = workloads.generate(workload, seed, Path(tempfile.mkdtemp(dir=tmp)))
    # grid paths differ between directories; compare the files' contents
    return [(op.kind, op.n, op.z, op.x, op.y, op.theta, op.abs_tol,
             Path(op.grid).read_text() if op.grid else "") for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs(workload, tmp_path):
    first = inputs(workload, 7, tmp_path)
    assert first == inputs(workload, 7, tmp_path)
    assert first != inputs(workload, 8, tmp_path)


def small_subset(workload: str, tmp: Path):
    """A few ops of each kind the workload has, cheap enough for a test."""
    ops = workloads.generate(workload, 3, tmp)
    if workload == "closed-eval":
        tiny = [op for op in ops if abs(op.z) < 1e-6][:3]
        dyadic = [op for op in ops if workloads.dyadic_level(op.n)][:12]
        return tiny + dyadic + [op for op in ops if op not in dyadic][:40]
    if workload == "series-tail":
        cheap = [op for op in ops if op.n > 2 or op.kind in ("zeta", "circle")]
        slow = [op for op in ops if op.kind == "direct" and op.n == 1 and op.abs_tol == 1e-6]
        return cheap[:40] + slow[:1]
    return [op for op in ops if op.n in (1, 4, 8)][:6]


def traced_pass(ops):
    calls = [workloads.make_call(op, pkg, cli) for op in ops]
    tracer = Tracer()
    with tracer.installed():
        _, outcomes = run.run_pass(calls, tracer)
    return tracer, outcomes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_match_results_and_repeat(workload, tmp_path):
    ops = small_subset(workload, tmp_path)
    first, outcomes = traced_pass(ops)
    again, _ = traced_pass(ops)
    layers = [layer_metrics(first), layer_metrics(again)]
    rep = checks.classify(workload, 3, ops, outcomes, pkg)
    assert checks.check_counters(layers, rep) == []
    assert rep.problems == []
    harness = {"cli.records", "cli.bytes_out"} | {k for k in LAYER_METRICS if k.startswith("trace.")}
    assert set(layers[0]) == set(LAYER_METRICS) - harness
    expected_work = {
        "closed-eval": ("closed.kernel_terms", "dyadic.base_calls"),
        "series-tail": ("direct.terms",),
        "crosscheck": COUNTERS,
    }[workload]
    for key in expected_work:
        assert layers[0][key] > 0, key


def test_self_time_plus_child_time_is_span_time(tmp_path):
    ops = small_subset("closed-eval", tmp_path) + small_subset("crosscheck", tmp_path)
    tracer, _ = traced_pass(ops)
    selfs = tracer.self_ns()
    child = [0] * len(tracer.names)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += tracer.end[i] - tracer.start[i]
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
            assert tracer.ops[i] == tracer.ops[p]
    for i in range(len(tracer.names)):
        assert selfs[i] >= 0
        assert selfs[i] + child[i] == tracer.end[i] - tracer.start[i]
    names = set(tracer.names)
    assert {"op", "closed.u_closed", "dyadic.phi", "theta.integrand", "cli.main"} <= names


def test_tracer_wraps_imported_names_and_restores_them():
    from cotlattice import closed, dyadic, theta

    def bindings():
        return (closed.validate_domain, dyadic.u_closed, theta.integrate_adaptive, pkg.u_closed)

    before = bindings()
    with Tracer().installed():
        assert all(a is not b for a, b in zip(bindings(), before))
    assert bindings() == before


def test_fails_without_sources(tmp_path):
    bench = tmp_path / "benchmark"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "crosscheck",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60, env=dict(os.environ))
    assert proc.returncode != 0
    assert proc.stdout == ""
