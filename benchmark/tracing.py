"""Spans around the calls into the package's layers, recorded from outside.

:class:`Tracer` replaces module attributes that the package calls through
with wrappers that record a span (name, start, end, parent, plan id) and
keeps the spans in memory; :meth:`Tracer.write` saves them when the run
ends.  A span's self time is its duration minus the durations of its
children, so the self times of one plan add up to the plan's wall time.
Layer counters (LP shape, tableau size, top-up bits, report bytes) are
computed from the wrapped calls' arguments and results after each plan,
outside every span.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import time
from dataclasses import dataclass, field

PLAN = "plan"

# Wrapped entry point -> the layer metric its self time is added to.
# ``router.solve`` is the name under which router calls ``qkdplan.lp.solve``.
LAYER_OF = {
    "cli.main": "cli.self_s",
    "netmodel.load_scenario": "netmodel.load_s",
    "netmodel.accumulate_pools": "netmodel.accumulate_s",
    "linkbudget.link_performance": "linkbudget.rate_s",
    "router.route_mmd": "router.route_s",
    "router.route_mr": "router.route_s",
    "router.route_sequential_dijkstra": "router.dijkstra_s",
    "router.solve_fractional": "router.decode_s",
    "router.build_lp": "router.build_lp_s",
    "router.solve": "lp.solve_s",
    "router.greedy_round": "router.round_s",
    "router.verify_solution": "router.verify_s",
    "cli.build_markdown": "cli.render_s",
    "router.solution_to_csv": "cli.render_s",
    PLAN: "cli.self_s",
}

# Per-layer metrics in report order: name -> unit.  Times and counts are
# means per traced plan; LP shapes are means per LP built; the tableau is
# the largest one solved (computed from the LP's shape, not measured).
LAYER_METRICS = {
    "lp.solve_s": "s",
    "lp.solves": "count",
    "lp.infeasible": "count",
    "lp.tableau_mb": "MiB-computed",
    "router.build_lp_s": "s",
    "router.lp_vars": "count",
    "router.lp_rows": "count",
    "router.lp_nnz": "count",
    "router.decode_s": "s",
    "router.round_s": "s",
    "router.round_topup_bits": "bits",
    "router.route_s": "s",
    "router.dijkstra_s": "s",
    "router.verify_s": "s",
    "netmodel.load_s": "s",
    "netmodel.accumulate_s": "s",
    "linkbudget.rate_s": "s",
    "linkbudget.rate_calls": "count",
    "cli.render_s": "s",
    "cli.report_bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

SELF_TIME_LAYERS = sorted(set(LAYER_OF.values()))

# Spans whose arguments and result feed a counter; others keep none.
_KEEP = {"router.build_lp", "router.solve", "router.greedy_round",
         "cli.build_markdown", "router.solution_to_csv"}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    plan: int
    end: float = math.nan
    call: tuple | None = field(default=None, repr=False)


def tableau_mib(lp) -> float:
    """Size of the dense tableau ``qkdplan.lp.solve`` builds for ``lp``.

    Fixed variables are substituted out, finite upper bounds become extra
    rows, and every equality row and every inequality row with a negative
    right-hand side gets an artificial column.
    """
    import numpy as np

    n = lp.objective.size
    bounds = lp.bounds if lp.bounds is not None else [(0.0, None)] * n
    lows = np.array([lo for lo, _ in bounds], dtype=float)
    free = [hi is None or hi != lo for lo, hi in bounds]
    uppers = sum(1 for (lo, hi), f in zip(bounds, free) if f and hi is not None)
    m_ub = (0 if lp.a_ub is None else lp.a_ub.shape[0]) + uppers
    m_eq = 0 if lp.a_eq is None else lp.a_eq.shape[0]
    negative = 0 if lp.a_ub is None else int(np.sum(lp.b_ub - lp.a_ub @ lows < 0))
    cols = sum(free) + m_ub + m_eq + negative + 1
    return (m_ub + m_eq) * cols * 8 / 2**20


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._plan = -1
        self._plan_first = 0

    # -- wrappers --------------------------------------------------------
    def _wrap(self, name, fn):
        keep = name in _KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, self._stack[-1] if self._stack else None, self._plan)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep:
                span.call = (args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name in LAYER_OF:
            if name == PLAN:
                continue
            module_name, attr = name.split(".")
            module = importlib.import_module(f"qkdplan.{module_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- plans -----------------------------------------------------------
    def start_plan(self, plan_id: int) -> None:
        self._plan = plan_id
        self._plan_first = len(self.spans)
        self.spans.append(Span(PLAN, 0.0, None, plan_id))
        self._stack.append(self._plan_first)
        self.spans[self._plan_first].start = time.perf_counter()

    def end_plan(self) -> dict:
        """Close the plan's root span; return its layer self times and counters."""
        root = self.spans[self._plan_first]
        root.end = time.perf_counter()
        self._stack.pop()
        spans = self.spans[self._plan_first :]
        totals = plan_layers(spans, self._plan_first)
        for span in spans:
            span.call = None
        return totals

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "plan": span.plan, "name": span.name,
                    "start": span.start, "end": span.end, "parent": span.parent,
                }) + "\n")


def self_times(spans: list[Span], first: int = 0) -> list[float]:
    """Duration minus the children's durations, per span."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent - first] -= s.end - s.start
    return own


def plan_layers(spans: list[Span], first: int = 0) -> dict:
    """Layer self times and counters of one plan's spans (root first)."""
    import numpy as np

    out = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans, first)):
        out[LAYER_OF[span.name]] += own
    out["plan_s"] = spans[0].end - spans[0].start
    counts = {"lp.solves": 0, "lp.infeasible": 0, "linkbudget.rate_calls": 0,
              "router.round_topup_bits": 0, "cli.report_bytes": 0, "lp_builds": 0,
              "router.lp_vars": 0, "router.lp_rows": 0, "router.lp_nnz": 0,
              "lp.tableau_mb": 0.0}
    for span in spans:
        if span.name == "linkbudget.link_performance":
            counts["linkbudget.rate_calls"] += 1
        if span.call is None:
            continue
        args, kwargs, result = span.call
        if span.name == "router.build_lp":
            lp = result[0]
            counts["lp_builds"] += 1
            counts["router.lp_vars"] += lp.objective.size
            counts["router.lp_rows"] += sum(
                0 if a is None else a.shape[0] for a in (lp.a_ub, lp.a_eq))
            counts["router.lp_nnz"] += sum(
                0 if a is None else int(np.count_nonzero(a)) for a in (lp.a_ub, lp.a_eq))
        elif span.name == "router.solve":
            counts["lp.solves"] += 1
            counts["lp.infeasible"] += result.status.value == "Infeasible"
            counts["lp.tableau_mb"] = max(counts["lp.tableau_mb"], tableau_mib(args[0]))
        elif span.name == "router.greedy_round":
            fractional = args[1] if len(args) > 1 else kwargs["fractional"]
            if result.status.value == "Optimal":
                counts["router.round_topup_bits"] += int(sum(result.demands)) - sum(
                    math.floor(d + 1e-6) for d in fractional.demands)
        else:
            counts["cli.report_bytes"] += len(result.encode())
    out.update(counts)
    return out
