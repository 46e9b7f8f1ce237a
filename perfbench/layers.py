"""Outside-in tracing of bundleopt's public functions, one span per call.

The tracer rebinds each traced function in every ``bundleopt`` module
namespace that holds it, so calls between modules (``menu_regions`` ->
``load_spec``) and inside a module (``compare`` -> ``best_nested_discrete``)
are both attributed.  Self time is a span's duration minus its child spans.
Per-point helpers (``demand_price``, ``profit_curve``, ``virtual_surplus``)
are left alone: they run tens of thousands of times per op.

Observers inspect selected return values after the span closes, for the
size and margin metrics; their time is charged to neither the span nor its
parent, and is what the reported tracing overhead is mostly made of.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of every traced function; the span name is the last
# two dotted parts, e.g. "oracle.from_spec"
TRACED = (
    ("model", "load_spec"),
    ("model", "validate_assumptions"),
    ("demand", "compute_profiles"),
    ("demand", "sales_volume"),
    ("dominance", "build_dominance"),
    ("dominance", "check_union_elasticity"),
    ("menu", "solve_nested_menu"),
    ("menu", "relaxed_bound"),
    ("menu", "envelope_allocation"),
    ("menu", "simulate_menu"),
    ("menu", "best_nested_menu"),
    ("menu", "optimize_chain"),
    ("oracle", "DiscretizedInstance.from_spec"),
    ("oracle", "solve_lp"),
    ("oracle", "compare"),
    ("oracle", "best_nested_discrete"),
    ("oracle", "discrete_chain_profit"),
    ("applications", "rotation_sweep"),
    ("applications", "menu_regions"),
    ("applications", "refine_menu_transition"),
    ("applications", "quality_menu_from_sales"),
    ("applications", "screening_optimal"),
    ("cli", "main"),
)

# per-layer metrics the traced run reports, with units
PER_LAYER = (
    ("oracle.solve_lp.self_s", "s"),
    ("oracle.lp_rows", "count"),
    ("oracle.lp_cols", "count"),
    ("oracle.lp_nnz", "count"),
    ("oracle.from_spec.self_s", "s"),
    ("oracle.compare.self_s", "s"),
    ("oracle.best_nested_discrete.self_s", "s"),
    ("oracle.discrete_chain_profit.calls", "count"),
    ("oracle.ic_violation_max", "abs"),
    ("oracle.stochastic_share", "ratio"),
    ("demand.compute_profiles.self_s", "s"),
    ("demand.sales_volume.self_s", "s"),
    ("demand.sales_volume.calls", "count"),
    ("menu.solve_nested_menu.self_s", "s"),
    ("menu.relaxed_bound.self_s", "s"),
    ("menu.envelope_allocation.self_s", "s"),
    ("menu.simulate_menu.self_s", "s"),
    ("menu.simulate_menu.calls", "count"),
    ("menu.best_nested_menu.self_s", "s"),
    ("menu.optimize_chain.self_s", "s"),
    ("menu.optimize_chain.calls", "count"),
    ("menu.valid_certificate_share", "ratio"),
    ("menu.bound_gap_max", "abs"),
    ("model.load_spec.self_s", "s"),
    ("model.load_spec.calls", "count"),
    ("model.validate_assumptions.self_s", "s"),
    ("model.validate_assumptions.calls", "count"),
    ("model.bundles", "count"),
    ("model.subset_pairs", "count"),
    ("dominance.build_dominance.self_s", "s"),
    ("dominance.check_union_elasticity.self_s", "s"),
    ("dominance.nested_share", "ratio"),
    ("applications.rotation_sweep.self_s", "s"),
    ("applications.menu_regions.self_s", "s"),
    ("applications.refine_menu_transition.calls", "count"),
    ("applications.quality_menu_from_sales.self_s", "s"),
    ("applications.screening_optimal.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.warnings", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
)


def lp_violation(instance, solution) -> float:
    """Worst IC, IR, lottery-mass or bound violation of an LP solution.

    Recomputed from the returned allocation and payments over all m^2
    (true type, report) pairs, independently of how the oracle built its LP.
    """
    opts = list(solution.option_bundles)
    values = instance.values[opts]  # (K, m)
    alloc = solution.allocation  # (m, K)
    pay = solution.payments
    # utility[k, r]: true type k reporting r
    utility = (alloc @ values).T - pay[None, :]
    truthful = np.diag(utility)
    ic = float(np.max(utility - truthful[:, None]))
    ir = float(np.max(-truthful))
    mass = float(np.max(alloc.sum(axis=1) - 1.0))
    box = float(max(np.max(-alloc), np.max(alloc - 1.0)))
    return max(ic, ir, mass, box, 0.0)


def lp_size(instance) -> tuple[int, int, int]:
    """Rows, columns and nonzeros of the dense oracle LP, computed from m and K."""
    m = instance.m
    k = len(instance.sellable)
    rows = m * (m - 1) + 2 * m  # pairwise IC, IR, lottery mass
    cols = m * k + m  # lottery weights, payments
    nnz = m * (m - 1) * (2 * k + 2) + m * (k + 1) + m * k
    return rows, cols, nnz


class Tracer:
    """Spans, per-function self time and calls, and observed sizes/margins."""

    def __init__(self):
        self.op_id = -1
        self.spans = []  # (op id, span id, parent span id, name, start, end)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.samples = defaultdict(list)  # gauge name -> observed values
        self.observe_s = 0.0
        self._stack = []  # [span id, child seconds] of open spans
        self._saved = []  # (namespace, attribute, original) to restore

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                tracer.spans[span_id] = (tracer.op_id, span_id, parent, name, start, end)
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                t0 = time.perf_counter()
                observe(tracer.samples, args, result)
                spent = time.perf_counter() - t0
                tracer.observe_s += spent
                if stack:
                    stack[-1][1] += spent
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a bundleopt module holds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "bundleopt"]
        for mod_name, attr in TRACED:
            module = sys.modules[f"bundleopt.{mod_name}"]
            name = f"{mod_name}.{attr.split('.')[-1]}"
            observe = OBSERVERS.get(name)
            if "." in attr:  # a staticmethod on a class
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapped = staticmethod(self._wrap(name, original.__func__, observe))
                self._saved.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._saved):
            setattr(namespace, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reporting ---------------------------------------------------------

    def metrics(self, n_ops: int) -> dict:
        """Per-op self time and calls, and gauges, for every PER_LAYER name
        except the cli.* and trace.* ones the runner measures itself."""
        out = {}
        per_op = 1.0 / max(n_ops, 1)
        s = self.samples
        for name, _unit in PER_LAYER:
            if name.endswith(".self_s"):
                out[name] = self.self_s[name[: -len(".self_s")]] * per_op
            elif name.endswith(".calls"):
                out[name] = self.calls[name[: -len(".calls")]] * per_op
        out["oracle.lp_rows"] = _mean(s["lp_rows"])
        out["oracle.lp_cols"] = _mean(s["lp_cols"])
        out["oracle.lp_nnz"] = _mean(s["lp_nnz"])
        out["oracle.ic_violation_max"] = max(s["lp_violation"], default=0.0)
        out["oracle.stochastic_share"] = _mean(s["lp_stochastic"])
        out["menu.valid_certificate_share"] = _mean(s["certificate_valid"])
        out["menu.bound_gap_max"] = max(s["bound_gap"], default=0.0)
        out["model.bundles"] = _mean(s["bundles"])
        out["model.subset_pairs"] = _mean(s["subset_pairs"])
        out["dominance.nested_share"] = _mean(s["nested"])
        return out


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def _observe_lp(samples, args, result):
    instance = args[0]
    rows, cols, nnz = lp_size(instance)
    samples["lp_rows"].append(rows)
    samples["lp_cols"].append(cols)
    samples["lp_nnz"].append(nnz)
    samples["lp_violation"].append(lp_violation(instance, result))
    samples["lp_stochastic"].append(float(result.stochastic))


def _observe_menu(samples, args, result):
    samples["certificate_valid"].append(float(result.certificate == "VALID"))
    samples["bound_gap"].append(abs(result.expected_profit - result.bound))


def _observe_load(samples, args, result):
    samples["bundles"].append(len(result.nonzero_bundles()))


def _observe_validation(samples, args, result):
    samples["subset_pairs"].append(result.checked_pairs)


def _observe_dominance(samples, args, result):
    samples["nested"].append(float(result.nested))


OBSERVERS = {
    "oracle.solve_lp": _observe_lp,
    "menu.solve_nested_menu": _observe_menu,
    "model.load_spec": _observe_load,
    "model.validate_assumptions": _observe_validation,
    "dominance.build_dominance": _observe_dominance,
}
