"""Layer spans recorded from outside stochfio.

``Tracer.active()`` replaces each traced function by a wrapper wherever the
function is bound: in every stochfio module namespace that imported it
(``regularizer.t_mul`` and ``jets.t_mul`` alike), or on its class for a
method.  The wrapper records a span (name, start, end, parent) and, for
some functions, counts taken from the arguments and the result.  Leaving
the context restores the original bindings, so untraced ops run the
program unchanged.  Spans stay in memory; ``layer_metrics`` reduces them.

Spans recorded inside forked worker processes are lost, so traced ops
must run with workers = 1.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.op"
JET_KERNELS = ("t_div", "t_exp", "t_add", "t_scale", "t_compose")


def _count_t_mul(counts, args, kwargs, out):
    for v in out.values():
        if isinstance(v, np.ndarray):
            counts["jets.t_mul.elements"] += v.size
            if np.iscomplexobj(v):
                counts["jets.t_mul.complex_elements"] += v.size


def _count_apply(counts, args, kwargs, field):
    chi = args[0].chi
    counts["oscillatory.nodes"] += field.meta["nodes"]
    counts["oscillatory.node_evals"] += field.meta["nodes"] * np.size(field.points[0])
    for lo, hi, n_xi, n_y in field.meta["bands"]:
        if hi <= chi.inner_radius + 1e-12:
            band = "inner"
        elif lo >= chi.inner_radius - 1e-12 and hi <= chi.outer_radius + 1e-12:
            band = "transition"
        else:
            band = "outer"
        counts[f"oscillatory.band_nodes.{band}"] += 2 * n_xi * n_y


def _count_rk4(counts, args, kwargs, steps):
    counts["applications.rk4_steps"] += steps


def _count_mc(counts, args, kwargs, stats):
    counts["stochastic.replicates"] += stats.n + len(stats.failures)
    counts["stochastic.failed_replicates"] += len(stats.failures)


def _count_json(counts, args, kwargs, text):
    counts["io.bytes_written"] += len(text.encode("utf-8"))


# (span name, module, class or None, attribute, counter)
TARGETS = (
    ("jets.t_mul", "jets", None, "t_mul", _count_t_mul),
    *((f"jets.{k}", "jets", None, k, None) for k in JET_KERNELS),
    ("symbol_spaces.membership", "symbol_spaces", None, "check_alpha_membership", None),
    ("symbol_spaces.phase_table", "symbol_spaces", "PhaseFunction", "table", None),
    ("regularizer.coefficient_tables", "regularizer", None, "coefficient_tables", None),
    ("regularizer.apply_l_ladder", "regularizer", None, "apply_l_ladder", None),
    ("regularizer.chi_table", "regularizer", "CutoffChi", "xi_table", None),
    ("oscillatory.apply", "oscillatory", None, "apply", _count_apply),
    ("applications.solve_flows", "applications", None, "solve_flows", None),
    ("applications.solve_characteristics", "applications", None,
     "solve_characteristics", None),
    ("applications.regime_horizon", "applications", None, "regime_horizon", None),
    ("applications.rk4_step_count", "applications", None, "rk4_step_count", _count_rk4),
    ("stochastic.mc_estimate", "stochastic", None, "mc_estimate", _count_mc),
    ("stochastic.map_values", "stochastic", None, "map_values", None),
    ("stochastic.push", "stochastic", "MCStats", "push", None),
    ("io.load_config", "io", None, "load_config", None),
    ("io.dump_json", "io", None, "dump_json", _count_json),
    ("cli.main", "cli", None, "main", None),
)


class Tracer:
    """Span recorder; ``active()`` installs the wrappers for one traced op."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []
        self.ops = 0

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counts, args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = perf_counter()

        return traced

    @contextmanager
    def active(self):
        """Wrap every target for the duration of one op under a root span."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "stochfio" or n.startswith("stochfio.")]
        saved = []
        try:
            for name, module, cls, attr, count in TARGETS:
                owner = sys.modules[f"stochfio.{module}"]
                if cls is not None:
                    owner = getattr(owner, cls)
                    saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, self._wrap(name, owner.__dict__[attr], count))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, count)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            saved.append((m, key, original))
                            setattr(m, key, wrapper)
            root = [ROOT_SPAN, perf_counter(), 0.0, -1]
            self._stack.append(len(self.spans))
            self.spans.append(root)
            try:
                yield
            finally:
                self._stack.pop()
                root[2] = perf_counter()
                self.ops += 1
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def op_seconds(self) -> list:
        return [end - start for name, start, end, _ in self.spans if name == ROOT_SPAN]

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["total_s"] += end - start
            a["self_s"] += end - start - child[i]
        return dict(agg)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, untraced_s: float, parallel_efficiency: float) -> dict:
    """Per-layer metrics: counts and seconds per traced op, and ratios.

    ``untraced_s`` is the wall time of the untraced ops that ran the same
    mix of op kinds as the traced ones, for the tracing overhead.
    """
    agg = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    ops = max(tracer.ops, 1)

    def get(name, key):
        return agg.get(name, zero)[key]

    def per_op(value):
        return value / ops

    c = tracer.counts
    apply_s = get("oscillatory.apply", "total_s")
    band_nodes = sum(c[f"oscillatory.band_nodes.{b}"] for b in ("inner", "transition", "outer"))
    traced_s = get(ROOT_SPAN, "total_s")
    m = {
        "jets.t_mul.calls": (per_op(get("jets.t_mul", "calls")), "count/op"),
        "jets.t_mul.self_s": (per_op(get("jets.t_mul", "self_s")), "s/op"),
        "jets.t_mul.elements": (per_op(c["jets.t_mul.elements"]), "count/op"),
        "jets.t_mul.complex_elements": (per_op(c["jets.t_mul.complex_elements"]), "count/op"),
        "jets.kernels.self_s": (per_op(sum(get(f"jets.{k}", "self_s") for k in JET_KERNELS)),
                                "s/op"),
        "symbol_spaces.membership.calls": (per_op(get("symbol_spaces.membership", "calls")),
                                           "count/op"),
        "symbol_spaces.membership.self_s": (per_op(get("symbol_spaces.membership", "self_s")),
                                            "s/op"),
        "symbol_spaces.phase_table.self_s": (per_op(get("symbol_spaces.phase_table", "self_s")),
                                             "s/op"),
        "regularizer.coefficient_tables.calls": (
            per_op(get("regularizer.coefficient_tables", "calls")), "count/op"),
        "regularizer.coefficient_tables.self_s": (
            per_op(get("regularizer.coefficient_tables", "self_s")), "s/op"),
        "regularizer.apply_l_ladder.self_s": (
            per_op(get("regularizer.apply_l_ladder", "self_s")), "s/op"),
        "regularizer.chi_table.self_s": (per_op(get("regularizer.chi_table", "self_s")), "s/op"),
        "regularizer.share_of_apply": (
            _ratio(get("regularizer.coefficient_tables", "total_s")
                   + get("regularizer.apply_l_ladder", "total_s"), apply_s), "share"),
        "oscillatory.apply.calls": (per_op(get("oscillatory.apply", "calls")), "count/op"),
        "oscillatory.apply.self_s": (per_op(get("oscillatory.apply", "self_s")), "s/op"),
        "oscillatory.nodes": (per_op(c["oscillatory.nodes"]), "count/op"),
        "oscillatory.node_evals_per_s": (_ratio(c["oscillatory.node_evals"], apply_s), "1/s"),
        "oscillatory.node_share.inner": (
            _ratio(c["oscillatory.band_nodes.inner"], band_nodes), "share"),
        "oscillatory.node_share.transition": (
            _ratio(c["oscillatory.band_nodes.transition"], band_nodes), "share"),
        "oscillatory.node_share.outer": (
            _ratio(c["oscillatory.band_nodes.outer"], band_nodes), "share"),
        "oscillatory.parallel_efficiency": (parallel_efficiency, "share"),
        "applications.solve_flows.calls": (per_op(get("applications.solve_flows", "calls")),
                                           "count/op"),
        "applications.solve_flows.self_s": (per_op(get("applications.solve_flows", "self_s")),
                                            "s/op"),
        "applications.solve_characteristics.self_s": (
            per_op(get("applications.solve_characteristics", "self_s")), "s/op"),
        "applications.regime_horizon.self_s": (
            per_op(get("applications.regime_horizon", "self_s")), "s/op"),
        "applications.rk4_steps": (per_op(c["applications.rk4_steps"]), "count/op"),
        "stochastic.replicates": (per_op(c["stochastic.replicates"]), "count/op"),
        "stochastic.failed_replicates": (per_op(c["stochastic.failed_replicates"]), "count/op"),
        "stochastic.map_values.self_s": (per_op(get("stochastic.map_values", "self_s")), "s/op"),
        "stochastic.push.self_s": (per_op(get("stochastic.push", "self_s")), "s/op"),
        "stochastic.replicates_per_s": (
            _ratio(c["stochastic.replicates"], get("stochastic.mc_estimate", "total_s")), "1/s"),
        "io.load_config.self_s": (per_op(get("io.load_config", "self_s")), "s/op"),
        "io.dump_json.self_s": (per_op(get("io.dump_json", "self_s")), "s/op"),
        "io.bytes_written": (per_op(c["io.bytes_written"]), "bytes/op"),
        "cli.main.self_s": (per_op(get("cli.main", "self_s")), "s/op"),
        "trace.overhead_share": (_ratio(traced_s - untraced_s, untraced_s), "share"),
        "trace.layer_share": (_ratio(traced_s - get(ROOT_SPAN, "self_s"), traced_s), "share"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
