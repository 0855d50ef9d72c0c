"""Benchmark of groupgap.solve on generated instances.

Run from the repository root, with asserts live (no ``-O``):

    python3 perfbench/run.py --workload search-heavy --seed 1 --seconds 30 --trace 0

One workload runs in one process, as a closed loop with one client and no
threads. Set-up (a fresh import of groupgap from ``src/``, instance
generation, a JSON round trip through ``groupgap.io`` and strict validation)
is repeated SETUP_REPEATS times; the last set of instances is then solved,
each exactly once, until ``--seconds`` have passed and at least the
workload's quota is done. Every output is re-checked with groupgap.model's
public functions. Timings use every solve and are scaled to a fixed machine
speed (see REFERENCE_S); counts, profit_ratio and the determinism digest use
exactly the first ``quota`` solves, so they repeat exactly for a seed.

The last line of stdout is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of tracing.py's wrappers with
``--trace 1``. The exit code is nonzero when any solve failed. README.md
lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# Stop the solve loop by this many seconds even short of the quota, so the
# process always exits well inside a three-minute limit.
HARD_STOP_S = 140.0
SETUP_LAYERS = ("model", "generate", "io")  # per-layer timings of one set-up
# The host's speed for CPU-bound Python swings by up to 2x over seconds to
# minutes, as other tenants load the shared cores. Every reported time is
# therefore scaled to the speed at which reference() takes REFERENCE_S:
# measured seconds * REFERENCE_S / reference() timed alongside. reference() is
# benchmark code, so no change to groupgap can move it.
REFERENCE_S = 0.002
# reference()'s shortest-path graph: 60 nodes, 6 out-edges each, (head, cost).
REFERENCE_GRAPH = [
    [((7 * u + 13 * e + 1) % 60, (31 * u + 17 * e) % 101) for e in range(6)]
    for u in range(60)
]


@dataclass(frozen=True)
class Workload:
    flavor: str
    n: int
    groups: int
    bins: int
    quota: int  # solves every run makes; counts, quality and digest use these

    @property
    def tail_percentile(self) -> int:
        """Highest percentile that leaves ten of ``quota`` solves beyond it."""
        return max(
            q for q in range(50, 100) if self.quota - math.ceil(q * self.quota / 100) >= 10
        )


# Why each shape stresses the layer it does is recorded in README.md and
# BENCHMARK.json; all use the default OptConfig (k=6).
WORKLOADS = {
    "search-heavy": Workload("uniform", 14, 7, 3, quota=100),
    "oracle-heavy": Workload("vod", 36, 6, 12, quota=50),
    "tail-heavy": Workload("uniform", 120, 2, 16, quota=50),
}


@dataclass
class Solved:
    wall: float
    problems: list[str]
    digest_line: str
    profit_ratio: Fraction | None = None
    layers: dict[str, float] | None = None
    scale: float = 1.0  # REFERENCE_S / reference() around this solve


def import_groupgap():
    """Import groupgap from this checkout's ``src/``, dropping any earlier import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "groupgap"]:
        del sys.modules[name]
    gg = importlib.import_module("groupgap")
    gio = importlib.import_module("groupgap.io")
    if not Path(gg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"groupgap was imported from {gg.__file__}, not from src/")
    return gg, gio


def make_instance(gg, gio, w: Workload, seed: int, k: int, phases: dict[str, float]):
    t0 = perf_counter()
    spec = gg.GeneratorSpec(
        seed=seed * 1_000_000 + k, n=w.n, groups=w.groups, bins=w.bins, flavor=w.flavor
    )
    inst = gg.generate(spec)
    t1 = perf_counter()
    text = gio.dumps_canonical(gio.instance_to_dict(inst))
    back = gio.instance_from_dict(json.loads(text))
    if gio.dumps_canonical(gio.instance_to_dict(back)) != text:
        raise RuntimeError(f"instance {k}: JSON round trip is not byte-stable")
    t2 = perf_counter()
    gg.validate_instance(back, strict=True)
    t3 = perf_counter()
    phases["generate"] += t1 - t0
    phases["roundtrip"] += t2 - t1
    phases["validate"] += t3 - t2
    return back


def set_up(w: Workload, seed: int):
    """One set-up: import, then generate, round-trip and validate the quota."""
    t0 = perf_counter()
    gg, gio = import_groupgap()
    phases: defaultdict[str, float] = defaultdict(float)
    instances = [make_instance(gg, gio, w, seed, k, phases) for k in range(w.quota)]
    return perf_counter() - t0, phases, gg, gio, instances


def recheck(gg, inst, assignment, report) -> list[str]:
    """Problems found in one output, checked apart from the certificate dict."""
    problems = [f"certificate:{name}" for name, ok in report.certificates.items() if not ok]
    selected_items = inst.group_items(report.selected_groups)
    checks = {
        "infeasible": gg.is_feasible(inst, assignment),
        "profit_mismatch": gg.assignment_profit(inst, assignment) == report.final_profit,
        "above_upper_bound": report.final_profit <= report.upper_bound,
        "below_half_group_lp": 2 * report.final_profit >= report.group_lp_value,
        "selection_over_half": inst.total_size(selected_items) <= Fraction(inst.m, 2),
        "item_outside_selection": assignment.placed_items() <= selected_items,
    }
    return problems + [name for name, ok in checks.items() if not ok]


def reference() -> float:
    """Seconds a fixed pure-Python workload takes right now.

    It mixes the solver's two kinds of work: exact Fraction sums, like the LP
    values, and shortest-path relaxations over int lists, like the flow solver.
    """
    t0 = perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(i % 13 + 1, i % 97 + 1)
        table[i & 63] = total
    for _ in range(15):
        dist: list[int | None] = [None] * len(REFERENCE_GRAPH)
        dist[0] = 0
        changed = True
        while changed:
            changed = False
            for u, du in enumerate(dist):
                if du is None:
                    continue
                for v, cost in REFERENCE_GRAPH[u]:
                    dv = dist[v]
                    if dv is None or du + cost < dv:
                        dist[v] = du + cost
                        changed = True
    return perf_counter() - t0


def speed() -> float:
    """reference(), median of three."""
    return statistics.median(reference() for _ in range(3))


def solve_one(gg, inst, k: int, tracer: tracing.Tracer | None) -> Solved:
    if tracer is not None:
        tracer.reset()
    wall = None
    t0 = perf_counter()
    try:
        assignment, report = gg.solve(inst)
        wall = perf_counter() - t0
        solved = Solved(
            wall=wall,
            problems=recheck(gg, inst, assignment, report),
            digest_line=f"{k}:{list(report.selected_groups)}:{report.final_profit}",
            profit_ratio=report.final_profit / report.upper_bound,
        )
    except Exception as exc:  # a failed solve is counted, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        problem = "exception" if wall is None else "recheck raised"
        wall = perf_counter() - t0 if wall is None else wall
        return Solved(wall, [problem], f"{k}:error:{type(exc).__name__}")
    if tracer is not None:
        layers = tracing.solve_layers(tracer)
        stages = report.stage_seconds
        for stage in ("select", "lp", "round", "fill"):
            if stage in stages:
                layers[f"pipeline.{stage}_s"] = stages[stage]
        if "total" in stages:
            layers["pipeline.after_s"] = wall - stages["total"]
        layers["trace.spans"] = sum(tracer.calls.values())
        solved.layers = layers
    return solved


def solve_loop(gg, gio, w: Workload, seed: int, instances, seconds: float, tracer):
    """Solve instance 0, 1, 2, ... until the time is up and the quota is done.

    The reference workload runs before the first solve and after each one;
    each solve is scaled by the median of the six reference timings around it.
    """
    solved: list[Solved] = []
    refs = [reference()]
    start = perf_counter()
    while True:
        k = len(solved)
        now = perf_counter()
        if (k >= w.quota and now >= start + seconds) or now >= start + HARD_STOP_S:
            break
        if k < len(instances):
            inst = instances[k]
        else:  # past the quota: generated here, outside the timed solve
            inst = make_instance(gg, gio, w, seed, k, defaultdict(float))
        solved.append(solve_one(gg, inst, k, tracer))
        refs.append(reference())
    for k, s in enumerate(solved):
        s.scale = REFERENCE_S / statistics.median(refs[max(0, k - 2) : k + 4])
    return solved


def end_to_end(w: Workload, solved: list[Solved], setup_times: list[float]) -> dict:
    times = sorted(s.wall * s.scale for s in solved)
    tail_rank = math.ceil(w.tail_percentile * len(times) / 100)
    ratios = [s.profit_ratio for s in solved[: w.quota] if s.profit_ratio is not None]
    return {
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.tail": (times[tail_rank - 1], "s"),
        "solves_per_s": (len(times) / sum(times), "1/s"),
        "profit_ratio": (float(sum(ratios, Fraction(0)) / max(len(ratios), 1)), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(w: Workload, solved: list[Solved], setup_phases, span_s: float) -> dict:
    """Timings are means per solve over every solve; counts over the quota."""
    traced = [s for s in solved if s.layers is not None]
    prefix = [s for s in solved[: w.quota] if s.layers is not None]

    def total(key, rows=prefix):
        return sum(s.layers[key] for s in rows)

    out = {}
    for phase, name in (
        ("validate", "model.validate_s"),
        ("generate", "generate.generate_s"),
        ("roundtrip", "io.roundtrip_s"),
    ):
        out[name] = (statistics.median(p[phase] for p in setup_phases), "s")
    if not prefix:  # every solve failed
        return out
    keys = set.intersection(*(set(s.layers) for s in traced))
    for key in sorted(keys):
        if key.endswith("_s"):
            seconds = sum(s.layers[key] * s.scale for s in traced)
            out[key] = (seconds / len(traced), "s")
        elif key not in tracing.BASES:
            out[key] = (total(key) / len(prefix), "count")
    for mode in ("profit", "match"):
        if f"flow.{mode}.edges" in keys:
            runs = total(f"flow.{mode}.runs")
            edges = total(f"flow.{mode}.edges")
            out[f"flow.{mode}.edges_per_run"] = (edges / runs if runs else 0.0, "count")
    if "lp_oracle.value_misses" in keys:
        calls = total("lp_oracle.value_calls")
        out["lp_oracle.memo_hit_ratio"] = (1 - total("lp_oracle.value_misses") / calls, "ratio")
        print(f"  lp_oracle.memo_hit_ratio base: {calls} value calls in {len(prefix)} solves")
    seconds = sum(s.wall * s.scale for s in traced)
    wrappers = total("trace.spans", traced) * span_s
    out["trace.overhead_ratio"] = (seconds / (seconds - wrappers), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not __debug__:
        print("perfbench: run without -O; the asserts are part of the check", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "groupgap" / "__init__.py").is_file():
        print(f"perfbench: no groupgap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    w = WORKLOADS[args.workload]

    setup_times, setup_phases = [], []
    for _ in range(SETUP_REPEATS):
        before = speed()
        seconds, phases, gg, gio, instances = set_up(w, args.seed)
        scale = REFERENCE_S / statistics.mean((before, speed()))
        setup_times.append(seconds * scale)
        setup_phases.append({phase: t * scale for phase, t in phases.items()})

    tracer = None
    if args.trace:
        span_s = tracing.span_cost() * REFERENCE_S / speed()
        tracer = tracing.Tracer()
        for target in tracing.install(tracer):
            print(f"perfbench: hook {target} not found; its metrics are absent", file=sys.stderr)

    solved = solve_loop(gg, gio, w, args.seed, instances, args.seconds, tracer)

    failed = [s for s in solved if s.problems]
    digest = hashlib.sha256(
        "\n".join(s.digest_line for s in solved[: w.quota]).encode()
    ).hexdigest()
    print(
        f"workload {args.workload}: {w.flavor} {w.n} items / {w.groups} groups / "
        f"{w.bins} bins, seed {args.seed}, trace {args.trace}: {len(solved)} solves, "
        f"quota {w.quota}, {SETUP_REPEATS} set-ups"
    )
    for s in failed:
        print(f"  failed: {s.digest_line}: {', '.join(s.problems)}")
    print(f"  digest = sha256:{digest} of (selected_groups, final_profit), first {w.quota}")
    print(
        f"  unscaled solve wall p50 {statistics.median(s.wall for s in solved):.6f} s; "
        f"median scale {statistics.median(s.scale for s in solved):.4f} "
        f"(reference workload {REFERENCE_S} s / its time now)"
    )
    if tracer is None:
        metrics = end_to_end(w, solved, setup_times)
        print(f"  solve_s.tail is the p{w.tail_percentile} of {len(solved)} solves")
    else:
        metrics = per_layer(w, solved, setup_phases, span_s)
        mean_s = statistics.mean(s.wall * s.scale for s in solved)
        print(f"  mean traced solve {mean_s:.6f} s; shares below are of that")
    for name, (value, unit) in metrics.items():
        share = ""
        if tracer is not None and unit == "s" and name.split(".")[0] not in SETUP_LAYERS:
            share = f"  {value / mean_s:7.2%}"
        print(f"  {name:28s} {value:14.6f} {unit}{share}")
    share = len(failed) / len(solved)
    print(f"  {'cert_fail_share':28s} {share:14.6f} share ({len(failed)} of {len(solved)} failed)")
    result = {
        "correct": not failed,
        "attempted": len(solved),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
