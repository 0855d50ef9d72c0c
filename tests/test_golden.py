"""Golden outputs: the stages' results on the benchmark's shapes, pinned by hash.

Each digest covers, for generator seeds ``1_000_000 + k`` (k < 10) of one
shape, the selected groups, the rounded assignment, the final assignment,
every fill step's kind and profits, and the final profit. The digests were
recorded with every stage after selection in rational arithmetic, so a
change of arithmetic that moves an output, a tie-break or a trace record
fails here. The rounded assignment is recomputed from a fresh oracle's
solution, which never depends on earlier queries.
"""

from __future__ import annotations

import hashlib

import pytest

from groupgap import GeneratorSpec, LpOracle, assignment_profit, generate, solve
from groupgap.rounding import round_to_assignment

# The benchmark's three workload shapes: (flavor, items, groups, bins).
SHAPES = {
    "search-heavy": (
        ("uniform", 14, 7, 3),
        "9ae24e191092359961bdba8523059856da8a2b8fa73527c8c6f1ed183bacce12",
    ),
    "oracle-heavy": (
        ("vod", 36, 6, 12),
        "a8bfdec985108ec5634017f038ce00b6653286c2a230e453e1ab8e77abc83b53",
    ),
    "tail-heavy": (
        ("uniform", 120, 2, 16),
        "a8e5580393467181fc64cb9050f94e98835419fe5cc72e1495bc686c2547e2b7",
    ),
}


def _bins(assignment) -> list[list[int]]:
    return [sorted(b) for b in assignment.bins]


def golden_lines(flavor: str, n: int, groups: int, bins: int):
    for k in range(10):
        spec = GeneratorSpec(seed=1_000_000 + k, n=n, groups=groups, bins=bins, flavor=flavor)
        inst = generate(spec)
        final, report = solve(inst)
        x = LpOracle(inst).solution(inst.group_items(report.selected_groups))
        rounded = round_to_assignment(inst, x)
        assert assignment_profit(inst, rounded) == report.rounded_profit, spec
        steps = [(s.kind, str(s.profit_before), str(s.profit_after)) for s in report.fill_steps]
        yield repr(
            (
                list(report.selected_groups),
                _bins(rounded),
                _bins(final),
                steps,
                str(report.final_profit),
            )
        )


def golden_digest(shape) -> str:
    return hashlib.sha256("\n".join(golden_lines(*shape)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_outputs_match_golden_digest(name):
    shape, digest = SHAPES[name]
    assert golden_digest(shape) == digest
