"""Timing wrappers around groupgap's layer boundaries, for the traced run.

Each hook replaces one attribute of a groupgap module (a function, or a
method on a class) with a wrapper that records a span: its duration, and
the part of that duration covered by spans opened inside it, so a layer's
self time is its spans' durations minus their children's. Counts are taken
at the same boundaries. Spans stay in memory and are summed per solve.

The hooks patch names where the pipeline looks them up, so the source tree
is never edited. A hook whose target is missing (renamed or removed by a
later refactor) is skipped, and every metric that needs it is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span and counter store, reset before every solve."""

    def __init__(self) -> None:
        self.installed: set[str] = set()
        self._stack: list[list] = []  # open spans as [name, child seconds]
        self.reset()

    def reset(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.nested: Counter[tuple[str, str]] = Counter()  # (span, parent span)
        self.counts: Counter[str] = Counter()

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - t0
            self._stack.pop()
            self.seconds[name] += duration
            self.self_seconds[name] += duration - frame[1]
            self.calls[name] += 1
            if self._stack:
                parent = self._stack[-1]
                parent[1] += duration
                self.nested[(name, parent[0])] += 1


def _timed(name, note=None):
    """Hook factory: time every call as a span; ``note`` sees each result."""

    def make(tracer: Tracer, fn):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if note is not None and name in tracer.installed:
                try:
                    note(tracer, result)
                except (AttributeError, TypeError, ValueError):
                    tracer.installed.discard(name)  # result changed shape: absent
            return result

        return wrapper

    return make


def _maximize(tracer: Tracer, fn):
    """Span the selection search, and each call of the oracle passed to it."""
    timed_oracle = _timed("submodular.oracle")

    def wrapper(f, *args, **kwargs):
        with tracer.span("submodular"):
            return fn(timed_oracle(tracer, f), *args, **kwargs)

    return wrapper


def _flow_run(tracer: Tracer, fn):
    """Span ``FlowNetwork.run``, split by mode: ``max_flow`` set means matching."""

    def wrapper(net, *args, **kwargs):
        max_flow = kwargs.get("max_flow", args[2] if len(args) > 2 else None)
        name = "flow.profit" if max_flow is None else "flow.match"
        edges = getattr(net, "to", None)
        if edges is not None:
            tracer.counts[name + ".edges"] += len(edges) // 2
        with tracer.span(name):
            return fn(net, *args, **kwargs)

    return wrapper


def _note_slot_graph(tracer: Tracer, graph) -> None:
    tracer.counts["rounding.slots"] += len(graph.slots)
    tracer.counts["rounding.slot_edges"] += len(graph.edges)


def _note_fill_trace(tracer: Tracer, result) -> None:
    _assignment, steps = result
    reinserts = sum(1 for step in steps if step.kind == "reinsert")
    tracer.counts["filling.reinserts"] += reinserts
    tracer.counts["filling.moves"] += len(steps) - reinserts


# (hook name, module, attribute path, wrapper factory). The pipeline imports
# its stage functions by name, so those are patched in groupgap.pipeline.
HOOKS = (
    ("submodular", "groupgap.pipeline", "maximize_with_reserve", _maximize),
    ("lp_oracle.value", "groupgap.lp_oracle", "LpOracle.value", _timed("lp_oracle.value")),
    (
        "lp_oracle.group_value",
        "groupgap.lp_oracle",
        "LpOracle.group_value",
        _timed("lp_oracle.group_value"),
    ),
    (
        "lp_oracle.solution",
        "groupgap.lp_oracle",
        "LpOracle.solution",
        _timed("lp_oracle.solution"),
    ),
    (
        "lp_oracle.transport",
        "groupgap.lp_oracle",
        "LpOracle._transport",
        _timed("lp_oracle.transport"),
    ),
    ("flow", "groupgap._flow", "FlowNetwork.run", _flow_run),
    ("rounding", "groupgap.pipeline", "round_to_assignment", _timed("rounding")),
    (
        "rounding.slot_graph",
        "groupgap.rounding",
        "build_slot_graph",
        _timed("rounding.slot_graph", _note_slot_graph),
    ),
    (
        "filling",
        "groupgap.pipeline",
        "make_feasible_traced",
        _timed("filling", _note_fill_trace),
    ),
)


def install(tracer: Tracer) -> list[str]:
    """Patch every hook whose target exists; returns the missing targets."""
    missing = []
    for hook, module_name, path, make in HOOKS:
        *parents, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        setattr(owner, attr, make(tracer, original))
        tracer.installed.add(hook)
    return missing


def span_cost(repeats: int = 5, calls: int = 20000) -> float:
    """Median extra seconds one span adds to a call, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = _timed("calibrate")(tracer, noop)
    costs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


# Per-solve totals that are only bases of ratios formed over many solves.
BASES = frozenset(
    {"flow.profit.edges", "flow.match.edges", "lp_oracle.value_misses", "trace.spans"}
)


def solve_layers(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of the solve just traced; absent hooks give no key.

    Keys ending in ``_s`` are seconds; the rest are deterministic counts.
    ``lp_oracle.value_misses`` counts value calls that ran a transport solve.
    """
    on = tracer.installed
    s, calls, counts = tracer.seconds, tracer.calls, tracer.counts
    out: dict[str, float] = {}
    if "submodular" in on:
        out["submodular.self_s"] = tracer.self_seconds["submodular"]
        out["submodular.oracle_s"] = s["submodular.oracle"]
        out["submodular.oracle_calls"] = calls["submodular.oracle"]
    lp_spans = [name for name in on if name.startswith("lp_oracle.")]
    if lp_spans:
        out["lp_oracle.self_s"] = sum(tracer.self_seconds[name] for name in lp_spans)
    if "lp_oracle.value" in on:
        out["lp_oracle.value_calls"] = calls["lp_oracle.value"]
    if "lp_oracle.transport" in on:
        out["lp_oracle.solves"] = calls["lp_oracle.transport"]
        if "lp_oracle.value" in on:
            out["lp_oracle.value_misses"] = tracer.nested[
                ("lp_oracle.transport", "lp_oracle.value")
            ]
    if "lp_oracle.solution" in on:
        out["lp_oracle.solution_s"] = s["lp_oracle.solution"]
    if "flow" in on:
        for mode in ("profit", "match"):
            name = "flow." + mode
            out[name + ".runs"] = calls[name]
            out[name + ".run_s"] = s[name]
            if "flow.profit.edges" in counts or "flow.match.edges" in counts:
                out[name + ".edges"] = counts[name + ".edges"]
    if "rounding" in on:
        out["rounding.round_s"] = s["rounding"]
    if "rounding.slot_graph" in on:
        out["rounding.slots"] = counts["rounding.slots"]
        out["rounding.slot_edges"] = counts["rounding.slot_edges"]
    if "filling" in on:
        out["filling.fill_s"] = s["filling"]
        out["filling.moves"] = counts["filling.moves"]
        out["filling.reinserts"] = counts["filling.reinserts"]
    return out
