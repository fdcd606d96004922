"""Span tracer for the benchmark, kept outside the program it measures.

`Tracer.install` wraps elapsednet's public functions under every name a
caller looks them up by: a function imported by name into several modules
(`damped_fixed_point` into renewal, limit and stationary) is replaced in
each of those modules, and a method is replaced on its class.  Each call
records a span (name, start, end, parent) in memory; a few calls also add
to counters read from their arguments or their result.  `summarize` turns
the spans into per-name call counts, busy time and self time, and
`layer_metrics` into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "elapsednet"

# (span name, defining module, attribute path in that module)
SPAN_TARGETS = (
    ("cli.main", "cli", "main"),
    ("config.build_experiment", "config", "build_experiment"),
    ("renewal.nonlinear_run", "renewal", "nonlinear_run"),
    ("renewal.characteristics_oracle", "renewal", "characteristics_oracle"),
    ("fixedpoint.damped_fixed_point", "fixedpoint", "damped_fixed_point"),
    ("models.interval_rates", "models", "FiringRateModel.interval_rates"),
    ("models.node_rates", "models", "FiringRateModel.node_rates"),
    ("models.cumulative_hazard", "models", "FiringRateModel.cumulative_hazard"),
    ("models.rule_evaluate", "models", "LearningRule.evaluate"),
    ("models.survival_F", "models", "survival_F"),
    ("limit.limit_run", "limit", "limit_run"),
    ("limit.inner_fixed_point", "limit", "inner_fixed_point"),
    ("stationary.solve_stationary", "stationary", "solve_stationary"),
    ("stationary.apply_T", "stationary", "StationaryProblem.apply_T"),
    ("stationary.certificate", "stationary", "StationaryProblem.certificate"),
    ("diagnostics.regime_certificates", "diagnostics", "regime_certificates"),
    ("output.write_record", "output", "write_record"),
    ("grids.integrate", "grids", "AgeGrid.integrate"),
)
# calls counted without a span, so that they do not split their caller's self time
COUNT_TARGETS = (
    ("renewal.oracle.windows", "renewal", "_oracle_window"),
)


def _count_steps(counters, bound, result):
    steps = round(bound["t_end"] / bound["cfg"].dt)
    ns, nx = bound["n0"].values.shape
    counters["renewal.steps"] += steps
    counters["renewal.cell_updates"] += steps * ns * nx


def _count_points(counters, bound, result):
    S = bound["S"]
    counters["models.survival_F.points"] += getattr(S, "size", 1)


def _count_picard(counters, bound, result):
    counters["fixedpoint.iterations"] += result.iterations
    counters["fixedpoint.unconverged"] += 0 if result.converged else 1


# counter hooks, run on the outermost call of their span name only
HOOKS = {
    "renewal.nonlinear_run": _count_steps,
    "models.survival_F": _count_points,
    "fixedpoint.damped_fixed_point": _count_picard,
}


class Tracer:
    """Records spans of the wrapped calls of one run in memory."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def install(self, names=None) -> None:
        """Wrap the span targets (all, or those named) and the count targets."""
        for name, module, path in SPAN_TARGETS:
            if names is None or name in names:
                self._patch(name, module, path, self._span_wrapper)
        if names is None:
            for name, module, path in COUNT_TARGETS:
                self._patch(name, module, path, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, name, module, path, make_wrapper) -> None:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{name} ({PACKAGE}.{module}.{path} not found)")
            return
        wrapper = make_wrapper(name, original)
        if classes:
            self._replace(owner, attr, wrapper)
            return
        # every module that imported the function by name looks it up there
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)

    def _replace(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            depth[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                depth[name] -= 1
            if hook is not None and depth[name] == 0:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counters, bound.arguments, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans,
                "counters": dict(self.counters), "missing": self.missing}


def _ancestor_names(spans) -> list[frozenset]:
    """For each span, the names of the spans enclosing it."""
    out: list[frozenset] = []
    for name, start, end, parent in spans:
        if parent < 0:
            out.append(frozenset())
        else:
            out.append(out[parent] | {spans[parent][0]})
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls and busy time `s` of the outermost calls (a call
    inside another call of the same name is part of that call), and self time
    `self_s`, the time not covered by child spans, summed over all calls."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    ancestors = _ancestor_names(spans)
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats[name]
        entry["self_s"] += (end - start) - child_time[i]
        if name not in ancestors[i]:
            entry["calls"] += 1
            entry["s"] += end - start
    return dict(stats)


def busy_time(spans, names) -> float:
    """Time covered by spans of any of `names`, counting nested ones once."""
    names = frozenset(names)
    ancestors = _ancestor_names(spans)
    return sum(end - start for i, (name, start, end, parent) in enumerate(spans)
               if name in names and not names & ancestors[i])


# per-layer metric -> (unit, what it reads, from which span names).  What it
# reads: a counter of the same name, a span statistic of summarize() (calls,
# s, self_s), or the busy time of a group of spans; None marks the two
# metrics derived afterwards.  Every metric is reported on every workload,
# as 0 where the workload does not reach that layer.
LAYERS = {
    "renewal.nonlinear_run.self_s": ("s", "self_s", "renewal.nonlinear_run"),
    "renewal.steps": ("count", "counter", None),
    "renewal.cell_updates": ("count", "counter", None),
    "models.interval_rates.calls": ("count", "calls", "models.interval_rates"),
    "models.interval_rates.s": ("s", "s", "models.interval_rates"),
    "models.rule_evaluate.s": ("s", "s", "models.rule_evaluate"),
    "fixedpoint.calls": ("count", "calls", "fixedpoint.damped_fixed_point"),
    "fixedpoint.iterations": ("count", "counter", None),
    "fixedpoint.iters_per_call": ("1", None, None),
    "fixedpoint.unconverged": ("count", "counter", None),
    "fixedpoint.self_s": ("s", "self_s", "fixedpoint.damped_fixed_point"),
    "models.survival_F.points": ("count", "counter", None),
    "models.survival_F.s": ("s", "s", "models.survival_F"),
    "limit.limit_run.self_s": ("s", "self_s", "limit.limit_run"),
    "limit.inner_fixed_point.calls": ("count", "calls", "limit.inner_fixed_point"),
    "limit.inner_fixed_point.s": ("s", "s", "limit.inner_fixed_point"),
    "stationary.solve_stationary.s": ("s", "s", "stationary.solve_stationary"),
    "stationary.apply_T.calls": ("count", "calls", "stationary.apply_T"),
    "diagnostics.certificates.s": (
        "s", "busy", ("diagnostics.regime_certificates", "stationary.certificate")),
    "renewal.characteristics_oracle.self_s": ("s", "self_s", "renewal.characteristics_oracle"),
    "renewal.oracle.windows": ("count", "counter", None),
    "models.cumulative_hazard.calls": ("count", "calls", "models.cumulative_hazard"),
    "models.cumulative_hazard.s": ("s", "s", "models.cumulative_hazard"),
    "models.node_rates.s": ("s", "s", "models.node_rates"),
    "output.write_record.s": ("s", "s", "output.write_record"),
    "output.bytes": ("B", "counter", None),
    "output.files": ("count", "counter", None),
    "cli.self_s": ("s", "self_s", "cli.main"),
    "grids.integrate.calls": ("count", "calls", "grids.integrate"),
    "grids.integrate.s": ("s", "s", "grids.integrate"),
    "config.build_experiment.s": ("s", "s", "config.build_experiment"),
    "trace.overhead_s": ("s", None, None),  # traced minus untraced wall_s, per run
}
LAYER_UNITS = {name: unit for name, (unit, _, _) in LAYERS.items()}
# counts derived from grid sizes and step counts rather than measured
COMPUTED = ("renewal.steps", "renewal.cell_updates")


def layer_metrics(trace: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run, all but trace.overhead_s."""
    spans, counters = trace["spans"], trace["counters"]
    stats = summarize(spans)
    out = {}
    for metric, (_, kind, source) in LAYERS.items():
        if kind == "counter":
            out[metric] = float(counters.get(metric, 0.0))
        elif kind == "busy":
            out[metric] = busy_time(spans, source)
        elif kind is not None:
            out[metric] = float(stats.get(source, {}).get(kind, 0.0))
    calls = out["fixedpoint.calls"]
    out["fixedpoint.iters_per_call"] = out["fixedpoint.iterations"] / calls if calls else 0.0
    return {metric: out[metric] for metric in LAYERS if metric in out}
