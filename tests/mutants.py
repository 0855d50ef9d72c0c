"""Each certificate and runtime check must fail the test written for it
once it is switched off, and so must each rule that the flow search's
skipped scans rest on once it is bent.

Run from the repository root::

    python tests/mutants.py

A mutant is (file under ``src/groupgap``, exact text, replacement, pytest
node). For each one, the script copies ``src/``, ``tests/`` and
``pyproject.toml`` (the pytest settings) to a temporary directory, checks
that the text occurs there exactly once, applies the replacement and runs
only that node. It first runs every node on the unmutated copy, which must
pass. It exits 1 and names each mutant whose node still passes, or whose
text does not occur exactly once; otherwise it exits 0.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OFF = "if False:"


def _certificate(key: str, expr: str) -> tuple[str, str, str, str]:
    line = f'"{key}": {expr},'
    return ("pipeline.py", line, f'"{key}": True,', "tests/test_io_cli.py::test_certificate_fires")


MUTANTS = [
    _certificate("selected_size_within_half", "2 * units.load(selected_items) <= inst.m * scale"),
    _certificate("fractional_matches_group_lp", "x.value == psi_star"),
    _certificate("rounded_at_least_fractional", "units.at_least(rounded_units, x.value)"),
    _certificate("final_at_least_half_rounded", "2 * final_units >= rounded_units"),
    _certificate("final_at_least_half_group_lp", "units.at_least(2 * final_units, psi_star)"),
    _certificate("final_feasible", "all(units.load(b) <= scale for b in final.bins)"),
    _certificate("selected_groups_packed", "placed == selected_items"),
    _certificate("satisfied_equals_final", "satisfied_units == final_units"),
    (
        "rounding.py",
        "if u.placed_items() != x.support_items():",
        OFF,
        "tests/test_rounding.py::test_round_guards_the_matching",
    ),
    (
        "rounding.py",
        "if not units.at_least(earned, x.value):",
        OFF,
        "tests/test_rounding.py::test_round_guards_the_matching",
    ),
    (
        "filling.py",
        "if result.placed_items() != u.placed_items():",
        OFF,
        "tests/test_filling.py::test_fill_guards_its_result",
    ),
    (
        "filling.py",
        "if any(load > scale for load in st.loads):",
        OFF,
        "tests/test_filling.py::test_fill_guards_its_result",
    ),
    (
        "filling.py",
        "if 2 * st.units.earned(result) < start_profit:",
        OFF,
        "tests/test_filling.py::test_fill_guards_its_result",
    ),
    (
        "filling.py",
        "if best_j is None:",
        OFF,
        "tests/test_filling.py::test_reinsert_failure_when_nothing_fits",
    ),
    (
        "_flow.py",
        "if push is None or push <= 0:",
        OFF,
        "tests/test_flow.py::test_augment_guards_a_full_path",
    ),
    (
        "_flow.py",
        "if limit is not None and du - pi[u] > limit:",
        "if limit is not None and du - pi[u] >= limit:",
        "tests/test_flow.py::test_later_searches_take_the_full_scan_paths",
    ),
    (
        "_flow.py",
        "pi = [p + limit if d is None or d - p > limit else d for d, p in zip(dist, pi)]",
        "pi = [p + limit if d is None else d for d, p in zip(dist, pi)]",
        "tests/test_flow.py::test_potentials_keep_reduced_costs_nonnegative",
    ),
    (
        "_flow.py",
        "dist, parent = self._shortest_path(s)  #",
        "dist, parent = self._shortest_path(s, t)  #",
        "tests/test_flow.py::test_negative_cycle_raises_instead_of_looping",
    ),
    (
        "lp_oracle.py",
        "if gain < 0:",
        OFF,
        "tests/test_lp_oracle.py::test_optimum_guards_a_value_loss",
    ),
    (
        "lp_oracle.py",
        "if rem != 0:",
        OFF,
        "tests/test_lp_oracle.py::test_solution_guards_an_unassigned_remainder",
    ),
    (
        "lp_oracle.py",
        "if earned != lp_units:",
        OFF,
        "tests/test_lp_oracle.py::test_solution_guards_the_lp_value",
    ),
    (
        "lp_oracle.py",
        "if total > m * scale:",
        OFF,
        "tests/test_lp_oracle.py::test_solution_insufficient_capacity",
    ),
    (
        "submodular.py",
        "if sum(units[b] for b in range(n) if best_mask >> b & 1) > half_units:",
        OFF,
        "tests/test_submodular.py::test_maximize_guards_half_the_capacity",
    ),
]


def passes(tree: Path, node: str) -> bool:
    """Whether ``node`` passes on the copy at ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", node],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=600,
    )
    return run.returncode == 0


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src")
        shutil.copytree(ROOT / "tests", tree / "tests")
        shutil.copy(ROOT / "pyproject.toml", tree)
        for node in sorted({node for *_mutant, node in MUTANTS}):
            if not passes(tree, node):
                print(f"FAIL unmutated: {node}")
                return 1
        for name, text, replacement, node in MUTANTS:
            path = tree / "src" / "groupgap" / name
            original = path.read_text()
            found = original.count(text)
            if found != 1:
                survivors.append(f"{name}: {text!r} occurs {found} times")
                continue
            path.write_text(original.replace(text, replacement))
            try:
                killed = not passes(tree, node)
            finally:
                path.write_text(original)
            print(f"{'killed' if killed else 'SURVIVED'}: {name}: {text} ({node})")
            if not killed:
                survivors.append(f"{name}: {text!r} survives {node}")
    for line in survivors:
        print(f"FAIL {line}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
