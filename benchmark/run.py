"""cotlattice benchmark: one seeded workload, measured end to end or traced.

    python3 benchmark/run.py --workload closed-eval --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  Load is a single-threaded
closed loop in this process: each op's result is back before the next op
starts, and no thread or subprocess runs while timing.

Measurement scheme
------------------
1. Set-up (``--trace 0``): SETUP_RUNS fresh interpreters, after one that
   is not counted, each timing ``import cotlattice`` plus a first
   evaluation of the workload's functions at a fixed point, from the
   child's first statement.  The children run one at a time between the
   timed passes of step 3, spread evenly over ``--seconds``, each pinned to
   the CPU of the pass before it.  ``setup_s`` is the fastest of them:
   set-up does not depend on the seed, so its spread between children is
   interference from other processes, which the minimum over a spread-out
   sample removes best.
2. One warm-up pass over the input list, untimed.  It fills lazy caches,
   and its results are the ones checked.
3. Timed passes over the same list for ``--seconds`` (at least
   MIN_PASSES), successive passes pinned to successive allowed CPUs so
   that one busy core cannot slow every sample.  Set-up children run
   between passes, outside their timing.  Every pass must reproduce the
   warm-up results.  Each op's latency is its fastest time
   over the passes, which removes most interference from other processes
   on a shared machine.  ``ops_per_s`` is correct ops divided by the sum
   of those fastest times; ``latency_p50_ms`` and ``latency_tail_ms`` are
   percentiles over ops, the tail being the op with exactly TAIL_BEYOND
   slower ops.
4. Checks against mpmath references and the output schema (``checks.py``),
   untimed.

With ``--trace 1`` plain and traced passes alternate (both of a pair on
one CPU).  Per-layer times are the fastest over traced passes; work
counters must repeat exactly between traced passes and equal the work the
results report; ``trace.overhead_ops_per_s`` is the traced minus the plain
``ops_per_s``.  Spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

SETUP_RUNS = 15
MIN_PASSES = 3
TAIL_BEYOND = 10

#: End-to-end metrics, name -> unit.  The *_ok_frac metrics are the
#: complements of fail_frac, pair_fail_frac and bound_violation_frac, which
#: are printed alongside.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "op_ok_frac": "fraction",
    "pair_ok_frac": "fraction",
    "bound_ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

SETUP_BODY = {
    "closed-eval": "cotlattice.u_closed(8, 0.7+0.2j)\ncotlattice.phi(3, 0.7+0.2j)",
    "series-tail": (
        "cotlattice.u_direct(3, 0.7, cotlattice.Tolerance(abs_tol=1e-10, rel_tol=0.0))\n"
        "cotlattice.product_ratio(cotlattice.ProductQuery(3, 0.25, 0.5))\n"
        "cotlattice.zeta_even(2)\ncotlattice.unit_circle_parts(3, 0.4)"),
    "crosscheck": (
        "import contextlib, io\nfrom cotlattice import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['verify', '--grid', {grid!r}, '--format', 'json-lines'])"),
}
SETUP_CHILD = """import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {src!r})
import cotlattice
{body}
print(repr(time.perf_counter() - t0))
"""


def fail(msg: str) -> None:
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


class SetupProbe:
    """Set-up times of fresh interpreters, taken a few at a time."""

    def __init__(self, workload: str, work: Path, seconds: float):
        grid = work / "setup.grid"
        grid.write_text("n 4 z 0.7\n")
        self.code = SETUP_CHILD.format(src=str(SRC),
                                       body=SETUP_BODY[workload].format(grid=str(grid)))
        self.seconds = seconds
        self.times: list[float] = []
        self.child()  # not counted: fills the file cache
        self.times.clear()
        self.start = time.perf_counter()

    def child(self) -> None:
        """One fresh interpreter; it inherits this process's CPU affinity."""
        proc = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up child failed:\n{proc.stderr}")
        self.times.append(float(proc.stdout.split()[-1]))

    def between_passes(self) -> None:
        """Run a child once the run is far enough into its seconds."""
        due = self.start + self.seconds * len(self.times) / SETUP_RUNS
        if len(self.times) < SETUP_RUNS and time.perf_counter() >= due:
            self.child()

    def finish(self) -> list[float]:
        cpus = sorted(os.sched_getaffinity(0))
        try:
            while len(self.times) < SETUP_RUNS:
                os.sched_setaffinity(0, {cpus[len(self.times) % len(cpus)]})
                self.child()
        finally:
            os.sched_setaffinity(0, cpus)
        return self.times


def run_pass(calls, tracer: Tracer | None = None):
    """Run every op once; returns (per-op ns, outcomes)."""
    n = len(calls)
    lat = [0] * n
    outcomes: list = [None] * n
    clock = time.perf_counter_ns
    for i in range(n):
        t0 = clock()
        try:
            out = calls[i]() if tracer is None else tracer.run_op(i, calls[i])
        except Exception as exc:  # classified after timing
            out = exc
        lat[i] = clock() - t0
        outcomes[i] = out
    return lat, outcomes


def same_outcome(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def timed_passes(calls, reference, seconds: float, tracer: Tracer | None = None,
                 probe: SetupProbe | None = None):
    """Passes for ``seconds`` (at least MIN_PASSES of each kind); with a
    tracer, plain and traced passes alternate.  A pass starts only while
    the median pass so far still fits.  ``probe`` takes its set-up samples
    between passes.

    Returns (plain latencies, traced latencies, per-layer figures of each
    traced pass, number of outcomes that differed from ``reference``)."""
    kinds = 1 if tracer is None else 2
    lats: list[list[list[int]]] = [[] for _ in range(kinds)]
    layers: list[dict] = []
    walls: list[float] = []
    differ = 0
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    try:
        while len(walls) < MIN_PASSES * kinds or (
                time.perf_counter() + statistics.median(walls) < deadline):
            k = len(walls)
            os.sched_setaffinity(0, {cpus[(k // kinds) % len(cpus)]})
            t0 = time.perf_counter()
            if k % kinds == 0:
                lat, outcomes = run_pass(calls)
            else:
                mark = tracer.mark()
                with tracer.installed():
                    lat, outcomes = run_pass(calls, tracer)
                layers.append(layer_metrics(tracer, mark))
            walls.append(time.perf_counter() - t0)
            lats[k % kinds].append(lat)
            differ += sum(not same_outcome(a, b) for a, b in zip(outcomes, reference))
            if probe:
                probe.between_passes()
    finally:
        os.sched_setaffinity(0, cpus)
    return lats[0], lats[-1] if tracer else [], layers, differ


def fastest(lats: list[list[int]]) -> list[int]:
    """Each op's fastest time over the passes, in ns."""
    return [min(col) for col in zip(*lats)]


def frac(num: int, den: int) -> float:
    return num / den if den else 0.0


def end_to_end(setup, per_op, ok_ops, n_passes, rss, rep):
    """name -> (value, samples, note) for every END_TO_END metric."""
    ordered = sorted(per_op)
    n = len(ordered)
    tail_idx = max(0, n - 1 - TAIL_BEYOND)
    return {
        "setup_s": (min(setup), len(setup), "fastest of the fresh interpreters"),
        "ops_per_s": (ok_ops / (sum(per_op) / 1e9), n,
                      f"{ok_ops} correct ops / sum of fastest op times"),
        "latency_p50_ms": (statistics.median(ordered) / 1e6, n,
                           f"over ops, each the fastest of {n_passes} passes"),
        "latency_tail_ms": (ordered[tail_idx] / 1e6, n,
                            f"p{100.0 * (tail_idx + 1) / n:.3f}, {n - 1 - tail_idx} ops beyond"),
        "op_ok_frac": (1.0 - frac(rep.failed, n), n, f"fail_frac {frac(rep.failed, n):.6f}"),
        "pair_ok_frac": (1.0 - frac(rep.pairs_failed, rep.pairs), rep.pairs,
                         f"pair_fail_frac {frac(rep.pairs_failed, rep.pairs):.6f}"),
        "bound_ok_frac": (1.0 - frac(rep.violations, rep.checked), rep.checked,
                          f"bound_violation_frac {frac(rep.violations, rep.checked):.6f}"),
        "peak_rss_mb": (rss, 1, "peak resident memory of this process"),
    }


def per_layer(layers, plain, traced, ok_ops, rep):
    """name -> value for every per-layer metric: times are the fastest
    over traced passes, counts those of the first traced pass."""
    out = {}
    for key in layers[0]:
        vals = [layer[key] for layer in layers]
        out[key] = min(vals) if key.endswith("_s") or ".ns_per" in key else vals[0]
    out["cli.records"] = rep.cli_records
    out["cli.bytes_out"] = rep.cli_bytes
    out["trace.untraced_ops_per_s"] = ok_ops / (sum(fastest(plain)) / 1e9)
    out["trace.traced_ops_per_s"] = ok_ops / (sum(fastest(traced)) / 1e9)
    out["trace.overhead_ops_per_s"] = out["trace.traced_ops_per_s"] - out["trace.untraced_ops_per_s"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cotlattice benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cotlattice" / "__init__.py").is_file():
        fail(f"no cotlattice sources under {SRC}; run from a full checkout")
    OUT.mkdir(exist_ok=True)
    # keep the CLI away from any user config file
    os.environ.pop("COTLATTICE_CONFIG", None)
    os.environ["XDG_CONFIG_HOME"] = str(OUT / "no-config")

    phases = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        sys.path.insert(0, str(SRC))
        import cotlattice as pkg
        from cotlattice import cli

        if Path(pkg.__file__).resolve().parent != (SRC / "cotlattice").resolve():
            fail(f"imported cotlattice from {pkg.__file__}, not from {SRC}")

        t_phase = time.perf_counter()
        ops = workloads.generate(args.workload, args.seed, work)
        calls = [workloads.make_call(op, pkg, cli) for op in ops]
        _, reference = run_pass(calls)
        phases["warm-up"] = time.perf_counter() - t_phase

        t_phase = time.perf_counter()
        tracer = Tracer() if args.trace else None
        probe = None if args.trace else SetupProbe(args.workload, work, args.seconds)
        plain, traced, layers, differ = timed_passes(calls, reference, args.seconds, tracer,
                                                     probe)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = probe.finish() if probe else []
        phases["timed and set-up"] = time.perf_counter() - t_phase

    t_phase = time.perf_counter()
    rep = checks.classify(args.workload, args.seed, ops, reference, pkg)
    if differ:
        rep.problems.append(f"{differ} op outcomes differed between passes")
    phases["checks"] = time.perf_counter() - t_phase

    n_ops = len(ops)
    ok_ops = n_ops - rep.failed
    lines = [f"workload {args.workload} seed {args.seed}: {n_ops} ops, "
             f"{len(plain)} plain and {len(traced)} traced passes"]
    metrics: dict[str, dict] = {}
    if args.trace == 0:
        values = end_to_end(setup, fastest(plain), ok_ops, len(plain), rss, rep)
        lines.append(f"{'metric':<16} {'value':>14} {'unit':<9} {'samples':>7}  note")
        for name, unit in END_TO_END.items():
            value, samples, note = values[name]
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:<16} {value:>14.6g} {unit:<9} {samples:>7}  {note}")
        lines.append("set-up times (s): " + " ".join(f"{t:.4f}" for t in setup))
    else:
        rep.problems += checks.check_counters(layers, rep)
        values = per_layer(layers, plain, traced, ok_ops, rep)
        for name, unit in LAYER_METRICS.items():
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"{name:<40} {values[name]:>16.6g} {unit}")
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans)
        lines.append(f"{len(tracer.names)} spans written to {spans}")

    lines.append("phase times (s): " + " ".join(f"{k} {v:.2f}" for k, v in phases.items()))
    lines.append(f"failed ops by kind: {rep.fail_kinds}; method pairs failed: "
                 f"{rep.pairs_failed}/{rep.pairs}; bound violations: "
                 f"{rep.violations}/{rep.checked} reference-checked ops")
    if rep.worst_violation[1]:
        lines.append(f"worst bound violation, {rep.worst_violation[0]:.3g}x: {rep.worst_violation[1]}")
    lines += [f"PROBLEM: {p}" for p in rep.problems[:20]]
    print("\n".join(lines))
    print(json.dumps({"correct": not rep.problems, "attempted": n_ops,
                      "failed": rep.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
