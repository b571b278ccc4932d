"""Span tracer that wraps cotlattice's public functions from outside the package.

``Tracer.installed()`` replaces each function in ``TRACED`` with a timing
wrapper in every ``cotlattice`` module that binds it, so calls made through
``from .x import y`` names (``closed.validate_domain``, ``dyadic.u_closed``,
``theta.integrate_adaptive`` ...) are traced too.  The integrand handed to
``integrate_adaptive`` is wrapped at that boundary as ``theta.integrand``.

A span is (name, start_ns, end_ns, parent, op, raised); spans of one
benchmark op share the op id the harness sets in ``Tracer.op``.  Spans stay
in memory until ``write_spans`` is called at the end of a run.  Work counts
are recorded at the same boundaries from arguments and returned values.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter
from typing import Callable

#: (module, function) pairs wrapped by the tracer; the span name is
#: "module.function".
TRACED = (
    ("types", "validate_domain"),
    ("closed", "u_closed"),
    ("closed", "unit_circle_parts"),
    ("dyadic", "phi"),
    ("direct", "u_direct"),
    ("numerics", "zeta_tail"),
    ("zeta_product", "zeta_even"),
    ("zeta_product", "product_ratio"),
    ("quadrature", "integrate_adaptive"),
    ("theta", "u_theta"),
    ("verify", "verify_points"),
    ("cli", "main"),
)

INTEGRAND = "theta.integrand"
OP = "op"


class Tracer:
    """In-memory span recorder with per-boundary work counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.ops: list[int] = []
        self.raised: list[bool] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    # -- span recording -------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.raised.append(False)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.raised[idx] = raised
        self._stack.pop()

    def span(self, name: str, fn: Callable, on_return: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records a span ``name``."""

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def run_op(self, op_id: int, call: Callable):
        """Run one benchmark op under a root span carrying its id."""
        self.op = op_id
        idx = self._open(OP)
        try:
            return call()
        finally:
            self._close(idx, False)
            self.op = -1

    # -- work counters at the boundaries ---------------------------------

    def _hooks(self, default_tol) -> dict[str, Callable]:
        c = self.counts

        def u_closed(args, kwargs, res):
            c["closed.kernel_terms"] += args[0]

        def u_direct(args, kwargs, res):
            c["direct.terms"] += res.work

        def zeta_even(args, kwargs, res):
            c["zeta_product.zeta_even.terms"] += res.work

        def product_ratio(args, kwargs, res):
            c["zeta_product.product_ratio.terms"] += res.work
            tol = kwargs.get("tol", args[1] if len(args) > 1 else default_tol)
            if res.err_estimate > tol.target(abs(res.value)):
                c["zeta_product.product_ratio.shortfall"] += 1

        def verify_points(args, kwargs, report):
            s = report.summary
            c["verify.runs"] += s.runs_total
            c["verify.runs_failed"] += s.runs_failed
            c["verify.pairs"] += s.pairs_total
            c["verify.pairs_failed"] += s.pairs_total - s.pairs_passed

        return {
            "closed.u_closed": u_closed,
            "direct.u_direct": u_direct,
            "zeta_product.zeta_even": zeta_even,
            "zeta_product.product_ratio": product_ratio,
            "verify.verify_points": verify_points,
        }

    def _integrate(self, fn: Callable) -> Callable:
        def counted(f):
            def integrand(xs):
                self.counts["quadrature.panels"] += 1
                self.counts["quadrature.nodes"] += len(xs)
                return f(xs)

            return self.span(INTEGRAND, integrand)

        def integrate_adaptive(f, *args, **kwargs):
            return fn(counted(f), *args, **kwargs)

        return integrate_adaptive

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore on exit."""
        import cotlattice

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cotlattice" or name.startswith("cotlattice."))]
        hooks = self._hooks(cotlattice.DEFAULT_TOLERANCE)
        patched: list[tuple[object, str, object]] = []
        try:
            for mod_name, fn_name in TRACED:
                original = getattr(sys.modules[f"cotlattice.{mod_name}"], fn_name)
                name = f"{mod_name}.{fn_name}"
                inner = self._integrate(original) if fn_name == "integrate_adaptive" else original
                wrapper = self.span(name, inner, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)

    # -- analysis --------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to measure a later stretch of work from."""
        return len(self.names), Counter(self.counts)

    def self_ns(self, first: int = 0) -> dict[int, int]:
        """Duration minus the durations of direct children, for each span
        from index ``first`` on (those spans' children come after it)."""
        child: Counter = Counter()
        for i in range(first, len(self.names)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return {i: self.end[i] - self.start[i] - child[i] for i in range(first, len(self.names))}

    def write_spans(self, path) -> None:
        """Write all spans as CSV: id,name,start_ns,end_ns,parent,op,raised."""
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op,raised\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.start[i]},{self.end[i]},{self.parent[i]},"
                         f"{self.ops[i]},{int(self.raised[i])}\n")


#: Per-layer metrics, name -> unit.  ``layer_metrics`` fills all but the
#: ``cli.records``/``cli.bytes_out`` output counts and the ``trace.*``
#: throughput figures, which the harness measures itself.
LAYER_METRICS = {
    "types.validate_domain.calls": "count",
    "types.validate_domain.self_s": "s",
    "closed.u_closed.calls": "count",
    "closed.u_closed.self_s": "s",
    "closed.kernel_terms": "count",
    "closed.ns_per_kernel_term": "ns",
    "closed.u_closed.failed": "count",
    "closed.unit_circle_parts.calls": "count",
    "closed.unit_circle_parts.self_s": "s",
    "dyadic.phi.calls": "count",
    "dyadic.phi.self_s": "s",
    "dyadic.base_calls": "count",
    "dyadic.phi.failed": "count",
    "direct.u_direct.calls": "count",
    "direct.u_direct.self_s": "s",
    "direct.terms": "count",
    "direct.ns_per_term": "ns",
    "direct.u_direct.failed": "count",
    "direct.failed_s": "s",
    "numerics.zeta_tail.calls": "count",
    "numerics.zeta_tail.self_s": "s",
    "zeta_product.zeta_even.calls": "count",
    "zeta_product.zeta_even.self_s": "s",
    "zeta_product.zeta_even.terms": "count",
    "zeta_product.product_ratio.calls": "count",
    "zeta_product.product_ratio.self_s": "s",
    "zeta_product.product_ratio.terms": "count",
    "zeta_product.product_ratio.shortfall": "count",
    "quadrature.integrate_adaptive.calls": "count",
    "quadrature.integrate_adaptive.self_s": "s",
    "quadrature.panels": "count",
    "quadrature.nodes": "count",
    "quadrature.failed": "count",
    "theta.u_theta.calls": "count",
    "theta.u_theta.self_s": "s",
    "theta.integrand.self_s": "s",
    "theta.ns_per_node": "ns",
    "theta.u_theta.failed": "count",
    "verify.verify_points.self_s": "s",
    "verify.runs": "count",
    "verify.runs_failed": "count",
    "verify.pairs": "count",
    "verify.pairs_failed": "count",
    "cli.main.self_s": "s",
    "cli.records": "count",
    "cli.bytes_out": "bytes",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}


def layer_metrics(tracer: Tracer, mark: tuple[int, Counter] = (0, Counter())) -> dict[str, float]:
    """Per-layer figures for the work recorded since ``mark``.

    Calls, self seconds and raised calls come from the spans; the work
    counts from the counters kept at the boundaries.
    """
    first, counts_before = mark
    selfs = tracer.self_ns(first)
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    failed: Counter = Counter()
    failed_ns: Counter = Counter()
    base_calls = 0
    for i in range(first, len(tracer.names)):
        name = tracer.names[i]
        calls[name] += 1
        self_ns[name] += selfs[i]
        if tracer.raised[i]:
            failed[name] += 1
            failed_ns[name] += tracer.end[i] - tracer.start[i]
        elif name == "closed.u_closed":
            p = tracer.parent[i]
            if p >= 0 and tracer.names[p] == "dyadic.phi":
                base_calls += 1
    counts = tracer.counts - counts_before

    def per(num_ns: float, den: float) -> float:
        return num_ns / den if den else 0.0

    out: dict[str, float] = {}
    for key in LAYER_METRICS:
        name, _, field = key.rpartition(".")
        if field == "calls":
            out[key] = calls[name]
        elif field == "self_s":
            out[key] = self_ns[name] / 1e9
        elif field == "failed":
            out[key] = failed[name]
        elif key not in ("cli.records", "cli.bytes_out") and not key.startswith("trace."):
            out[key] = counts[key]
    out.update({
        "closed.ns_per_kernel_term": per(self_ns["closed.u_closed"], counts["closed.kernel_terms"]),
        "dyadic.base_calls": base_calls,
        "direct.ns_per_term": per(self_ns["direct.u_direct"], counts["direct.terms"]),
        "direct.failed_s": failed_ns["direct.u_direct"] / 1e9,
        "quadrature.failed": failed["quadrature.integrate_adaptive"],
        "theta.ns_per_node": per(self_ns[INTEGRAND], counts["quadrature.nodes"]),
    })
    return out
