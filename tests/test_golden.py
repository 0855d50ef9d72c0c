"""Golden outputs: the stages' results on the benchmark's shapes, pinned by hash.

Each digest covers, for generator seeds ``1_000_000 + k`` (k < 10) of one
shape, the selected groups, the rounded assignment, the final assignment,
every fill step's kind and profits, and the final profit. The digests were
recorded with every stage after selection in rational arithmetic, so a
change of arithmetic that moves an output, a tie-break or a trace record
fails here. The rounded assignment is recomputed from a fresh oracle's
solution, which never depends on earlier queries.

The instance files of the same shapes and seeds are pinned by hash too, so a
change to the JSON writer that moves one byte fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from groupgap import GeneratorSpec, LpOracle, assignment_profit, generate, solve
from groupgap.io import dumps_canonical, instance_to_dict
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


# sha256 of the ten canonical instance files of each shape, written one after
# the other.
INSTANCE_FILES = {
    "search-heavy": "6f3e0e37ee25508b0323d15bdc3f614a7215392a6939e1acca406a3492d6dabb",
    "oracle-heavy": "5b63aac48e616fd8b3e11b90cbc80a0d66c5d80038bd652696058619f0e15973",
    "tail-heavy": "922e90bef00c74dc8b644e51b7cf52014ca6e40c6b655a04c4e5a25aa057bb6a",
}


def _specs(flavor: str, n: int, groups: int, bins: int):
    for k in range(10):
        yield GeneratorSpec(seed=1_000_000 + k, n=n, groups=groups, bins=bins, flavor=flavor)


def _bins(assignment) -> list[list[int]]:
    return [sorted(b) for b in assignment.bins]


def golden_lines(flavor: str, n: int, groups: int, bins: int):
    for spec in _specs(flavor, n, groups, bins):
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


@pytest.mark.parametrize("name", sorted(INSTANCE_FILES))
def test_instance_files_match_golden_digest(name):
    shape, _digest = SHAPES[name]
    text = "".join(dumps_canonical(instance_to_dict(generate(spec))) for spec in _specs(*shape))
    assert hashlib.sha256(text.encode()).hexdigest() == INSTANCE_FILES[name]
