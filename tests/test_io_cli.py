import dataclasses
import json
import random
from fractions import Fraction

import pytest

from groupgap import io
from groupgap.cli import main
from groupgap.errors import (
    GroupGapError,
    InvariantViolated,
    LimitExceeded,
    PreconditionViolated,
    ValidationError,
)
from groupgap.generate import GeneratorSpec, generate
from groupgap.lp_oracle import LpOracle
from groupgap.model import Assignment, parse_rational, validate_instance
from groupgap.pipeline import solve

from conftest import F, make_instance, worked_example


def test_instance_round_trip_bytes(tmp_path):
    inst = worked_example(m=3)
    path = tmp_path / "inst.json"
    io.save_instance(inst, path)
    first = path.read_bytes()
    io.save_instance(io.load_instance(path), path)
    assert path.read_bytes() == first


def test_file_format_uses_one_based_bins(tmp_path):
    inst = make_instance(2, {1: F(1, 2)}, [[1]], {(1, 1): F(3)})
    doc = io.instance_to_dict(inst)
    assert doc["profits"] == [{"item": 1, "bin": 2, "value": "3"}]
    back = io.instance_from_dict(doc)
    assert back.profit(1, 1) == 3 and back.profit(1, 0) == 0


def test_zero_profits_dropped_in_canonical_form():
    inst = make_instance(1, {1: F(1, 2)}, [[1]], {(1, 0): F(0)})
    assert io.instance_to_dict(inst)["profits"] == []


# Floats are malformed too: rationals in files are "p/q" strings or ints.
MALFORMED_SIZES = ("1/0", 0.3333333333333333, 0.5)


def test_malformed_rational_names_field():
    for size in MALFORMED_SIZES:
        doc = {
            "m": 1,
            "items": [{"id": 1, "size": size}],
            "groups": [[1]],
            "profits": [],
        }
        with pytest.raises(ValidationError, match=r"^items\[0\]\.size"):
            io.instance_from_dict(doc)


def test_malformed_profit_names_field():
    for value in ("x", 2.5, 3.0):
        doc = {
            "m": 1,
            "items": [{"id": 1, "size": "1/2"}],
            "groups": [[1]],
            "profits": [{"item": 1, "bin": 1, "value": value}],
        }
        with pytest.raises(ValidationError, match=r"^profits\[0\]\.value"):
            io.instance_from_dict(doc)


VALID_DOC = {
    "m": 1,
    "items": [{"id": 1, "size": "1/2"}],
    "groups": [[1]],
    "profits": [{"item": 1, "bin": 1, "value": "3"}],
}


@pytest.mark.parametrize(
    "change, message",
    [
        (None, r"^document: expected a JSON object$"),
        ({"m": "1"}, r"^m: expected an integer, got '1'$"),
        ({"items": {}}, r"^items: expected an array$"),
        ({"items": [1]}, r"^items\[0\]: expected an object$"),
        ({"groups": {}}, r"^groups: expected an array of arrays$"),
        ({"groups": [1]}, r"^groups\[0\]: expected an array of item ids$"),
        ({"profits": {}}, r"^profits: expected an array$"),
        ({"profits": ["3"]}, r"^profits\[0\]: expected an object$"),
        (
            {"profits": [VALID_DOC["profits"][0]] * 2},
            r"^profits\[1\]: duplicate entry for item 1, bin 1$",
        ),
        (
            {"profits": [{"item": 1, "bin": 1, "value": "0"}, VALID_DOC["profits"][0]]},
            r"^profits\[1\]: duplicate entry for item 1, bin 1$",
        ),
    ],
    ids=[
        "not-an-object",
        "non-integer-field",
        "items-not-an-array",
        "item-not-an-object",
        "groups-not-an-array",
        "group-not-an-array",
        "profits-not-an-array",
        "profit-not-an-object",
        "duplicate-profit",
        "duplicate-profit-after-a-zero",
    ],
)
def test_instance_from_dict_rejects_malformed_structure(change, message):
    doc = [VALID_DOC] if change is None else {**VALID_DOC, **change}
    io.instance_from_dict(VALID_DOC)
    with pytest.raises(ValidationError, match=message):
        io.instance_from_dict(doc)


def test_report_json_round_trip():
    inst = worked_example(m=3)
    assignment, report = solve(inst)
    doc = json.loads(json.dumps(io.report_to_dict(report, assignment)))
    # Every field reads back as the report's value: the writer loses nothing.
    assert [g - 1 for g in doc["selected_groups"]] == list(report.selected_groups)
    for field in (
        "group_lp_value",
        "fractional_value",
        "rounded_profit",
        "final_profit",
        "satisfied_profit",
        "upper_bound",
    ):
        assert parse_rational(doc[field]) == getattr(report, field), field
    assert doc["certificates"] == dict(report.certificates)
    assert doc["stage_seconds"] == dict(report.stage_seconds)
    assert [frozenset(b) for b in doc["bins"]] == list(assignment.bins)


def test_cli_solve_table(tmp_path, capsys):
    path = tmp_path / "inst.json"
    io.save_instance(worked_example(m=3), path)
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "final profit" in out and "13" in out
    assert "all OK" in out


def test_cli_solve_table_with_exact_compare(tmp_path, capsys):
    path = tmp_path / "inst.json"
    io.save_instance(worked_example(m=3), path)
    assert main(["solve", str(path), "--exact-compare"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].split() == ["exact", "optimum", "13"]
    assert lines[-1].split() == ["ratio", "vs", "exact", "1.0000"]


def test_cli_solve_zero_optimum_ratio(tmp_path, capsys):
    """Without profit the optimum is 0, and the ratio is taken as 1."""
    path = tmp_path / "inst.json"
    io.save_instance(make_instance(1, {1: F(1, 2)}, [[1]], {}), path)
    assert main(["solve", str(path), "--json", "--exact-compare"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["final_profit"], doc["exact_optimum"], doc["ratio_vs_exact"]) == ("0", "0", 1.0)


def test_cli_solve_json_reparses(tmp_path, capsys):
    path = tmp_path / "inst.json"
    io.save_instance(worked_example(m=3), path)
    assert main(["solve", str(path), "--json", "--exact-compare"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["final_profit"] == "13"
    assert doc["exact_optimum"] == "13"
    assert doc["ratio_vs_exact"] == 1.0


def test_cli_solve_trace_on_stderr(tmp_path, capsys):
    path = tmp_path / "inst.json"
    io.save_instance(worked_example(m=3), path)
    assert main(["solve", str(path), "--trace", "--json"]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.err.strip().splitlines()]
    assert lines and lines[0]["kind"] == "move-big-to-vacant"
    json.loads(captured.out)  # stdout stays pure JSON


def test_cli_solve_reports_internal_errors_apart(tmp_path, capsys, monkeypatch):
    # One case per error class: only InvariantViolated, a bug, exits 4.
    cases = {
        InvariantViolated: (4, "internal error: "),
        ValidationError: (2, "error: "),
        PreconditionViolated: (2, "error: "),
        LimitExceeded: (2, "error: "),
        GroupGapError: (2, "error: "),
    }
    assert cases.keys() == {GroupGapError, *GroupGapError.__subclasses__()}
    path = tmp_path / "inst.json"
    io.save_instance(worked_example(m=3), path)
    for cls, (code, prefix) in cases.items():

        def fail(_inst, cls=cls):
            raise cls("solve failed")

        monkeypatch.setattr("groupgap.cli.solve", fail)
        assert main(["solve", str(path)]) == code, cls.__name__
        assert capsys.readouterr().err == f"{prefix}solve failed\n", cls.__name__


def test_cli_solve_exits_3_when_a_certificate_fails(tmp_path, capsys, monkeypatch):
    def one_failed(inst):
        assignment, report = solve(inst)
        certificates = dict(report.certificates, final_feasible=False)
        return assignment, dataclasses.replace(report, certificates=certificates)

    monkeypatch.setattr("groupgap.cli.solve", one_failed)
    path = tmp_path / "inst.json"
    io.save_instance(worked_example(m=3), path)
    assert main(["solve", str(path)]) == 3
    assert "FAILED" in capsys.readouterr().out
    assert main(["solve", str(path), "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["certificates"]["final_feasible"] is False


def _fill_returning(monkeypatch, fill):
    """Replace the filling with ``fill(rounded)``, a well-formed assignment."""
    monkeypatch.setattr(
        "groupgap.pipeline.make_feasible_traced", lambda _inst, u: (fill(u), ())
    )


def _selection_of_every_group(monkeypatch):
    """Select every group. The filling's precondition rejects placed items
    above half the capacity, so the filling passes the rounding through."""
    monkeypatch.setattr(
        "groupgap.pipeline.maximize_with_reserve",
        lambda _f, sizes, _capacity: frozenset(sizes),
    )
    _fill_returning(monkeypatch, lambda u: u)


def _rounding_into_bin_1(monkeypatch):
    monkeypatch.setattr(
        "groupgap.pipeline.round_to_assignment",
        lambda _inst, _x: Assignment(bins=(frozenset(), frozenset({1}))),
    )


def _lp_solution_one_unit_short(monkeypatch):
    solution = LpOracle.solution

    def one_unit_short(oracle, item_ids):
        x = solution(oracle, item_ids)
        return dataclasses.replace(x, value=x.value - Fraction(1, oracle._cost_den))

    monkeypatch.setattr(LpOracle, "solution", one_unit_short)


def _two_singletons(m, size, profits):
    return make_instance(m, {1: size, 2: size}, [[1], [2]], profits)


# Per certificate: (instance, patch, the keys that turn False). Each patch
# makes the stage that feeds the certificate return a well-formed but worse
# result, on an instance where the rest of the chain still holds.
CERTIFICATE_CASES = {
    # Both 3/4-size groups of a 2-bin instance, each worth 5 in its own bin.
    "selected_size_within_half": (
        _two_singletons(2, F(3, 4), {(1, 0): F(5), (2, 1): F(5)}),
        _selection_of_every_group,
        {"selected_size_within_half"},
    ),
    # An LP solution worth one unit of 1 / _cost_den less than the selected
    # groups' LP value.
    "fractional_matches_group_lp": (
        worked_example(m=3),
        _lp_solution_one_unit_short,
        {"fractional_matches_group_lp"},
    ),
    # The rounding puts the item in the bin worth 5, not 8: still at least
    # half the LP value, so only the rounding's certificate fails.
    "rounded_at_least_fractional": (
        make_instance(2, {1: F(1, 4)}, [[1]], {(1, 0): F(8), (1, 1): F(5)}),
        _rounding_into_bin_1,
        {"rounded_at_least_fractional"},
    ),
    # The filling moves the item from the bin worth 8 to the bin worth 1.
    # The rounding's profit is at least the LP value, so below half of it
    # is below half the LP value too.
    "final_at_least_half_rounded": (
        make_instance(2, {1: F(1, 4)}, [[1]], {(1, 0): F(8), (1, 1): F(1)}),
        lambda mp: _fill_returning(mp, lambda _u: Assignment(bins=(frozenset(), frozenset({1})))),
        {"final_at_least_half_rounded", "final_at_least_half_group_lp"},
    ),
    # Half the rounding's profit is at least half the LP value unless the
    # rounding fell below the LP value, so this one never fires alone. Here
    # the rounding puts the item in the bin worth 1, and the filling keeps it.
    "final_at_least_half_group_lp": (
        make_instance(2, {1: F(1, 4)}, [[1]], {(1, 0): F(8), (1, 1): F(1)}),
        _rounding_into_bin_1,
        {"rounded_at_least_fractional", "final_at_least_half_group_lp"},
    ),
    # A filling that leaves both 3/4-size items in bin 0, each worth 1
    # anywhere.
    "final_feasible": (
        _two_singletons(3, F(3, 4), {(i, j): F(1) for i in (1, 2) for j in range(3)}),
        lambda mp: _fill_returning(
            mp, lambda u: Assignment(bins=(u.placed_items(), frozenset(), frozenset()))
        ),
        {"final_feasible"},
    ),
    # A filling that drops the group worth 1 of the two selected; the one
    # worth 8 is more than half the selection's 9.
    "selected_groups_packed": (
        _two_singletons(2, F(1, 4), {(1, 0): F(8), (2, 0): F(1)}),
        lambda mp: _fill_returning(mp, lambda _u: Assignment(bins=(frozenset({1}), frozenset()))),
        {"selected_groups_packed"},
    ),
    # The same filling on one group of both items: the group is no longer
    # satisfied, so its item 1 earns nothing. A final that places exactly
    # the selected groups satisfies all of them, so this one fires only
    # with selected_groups_packed.
    "satisfied_equals_final": (
        make_instance(2, {1: F(1, 4), 2: F(1, 4)}, [[1, 2]], {(1, 0): F(8), (2, 0): F(1)}),
        lambda mp: _fill_returning(mp, lambda _u: Assignment(bins=(frozenset({1}), frozenset()))),
        {"selected_groups_packed", "satisfied_equals_final"},
    ),
}


@pytest.mark.parametrize("key", list(solve(worked_example(m=3))[1].certificates))
def test_certificate_fires(key, tmp_path, capsys, monkeypatch):
    """Each certificate turns False when the stage that feeds it returns a
    worse result, and ``groupgap solve`` exits 3 on it, with and without
    ``--json``. The keys come from a solve, so a new certificate without a
    case fails here."""
    inst, patch, expected = CERTIFICATE_CASES[key]
    assert key in expected
    _assignment, unpatched = solve(inst)
    assert unpatched.all_certified()
    patch(monkeypatch)
    _assignment, report = solve(inst)
    assert {name for name, ok in report.certificates.items() if not ok} == expected
    path = tmp_path / "inst.json"
    io.save_instance(inst, path)
    assert main(["solve", str(path)]) == 3
    assert "FAILED" in capsys.readouterr().out
    assert main(["solve", str(path), "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert {name for name, ok in doc["certificates"].items() if not ok} == expected


def test_cli_solve_reports_stage_input_errors_as_internal(tmp_path, capsys, monkeypatch):
    # A rounding that piles all three items into bin 0 hands the filling an
    # assignment that is not almost feasible. On a strictly valid instance
    # only a bug can do that, so the CLI exits 4, not 2.
    def overload(inst, _x):
        return Assignment(bins=(frozenset(inst.item_ids),) + (frozenset(),) * (inst.m - 1))

    monkeypatch.setattr("groupgap.pipeline.round_to_assignment", overload)
    inst = make_instance(
        m=4,
        sizes={1: F(3, 5), 2: F(3, 5), 3: F(3, 5)},
        groups=[[1, 2, 3]],
        profits={(1, 0): F(1), (2, 0): F(1), (3, 0): F(1)},
    )
    path = tmp_path / "inst.json"
    io.save_instance(inst, path)
    assert main(["solve", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "not almost feasible" in err


@pytest.mark.parametrize(
    "stage",
    [
        "groupgap.pipeline.maximize_with_reserve",
        "groupgap.lp_oracle.LpOracle.solution",
        "groupgap.pipeline.round_to_assignment",
        "groupgap.pipeline.make_feasible_traced",
    ],
    ids=["select", "lp", "round", "fill"],
)
def test_stage_precondition_errors_after_validation_are_internal(
    stage, tmp_path, capsys, monkeypatch
):
    # A strictly valid instance is inside every stage's regime, so a stage
    # that rejects its input shows a bug in the stage before it.
    def reject(*_args, **_kwargs):
        raise PreconditionViolated("input outside the regime")

    monkeypatch.setattr(stage, reject)
    inst = worked_example(m=3)
    with pytest.raises(InvariantViolated, match="^PreconditionViolated: input outside") as exc:
        solve(inst)
    assert isinstance(exc.value.__cause__, PreconditionViolated)
    path = tmp_path / "inst.json"
    io.save_instance(inst, path)
    assert main(["solve", str(path)]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: PreconditionViolated: input outside the regime\n"


def test_cli_solve_rejects_oversized(tmp_path, capsys):
    path = tmp_path / "inst.json"
    io.save_instance(worked_example(m=2), path)
    assert main(["solve", str(path)]) == 2
    assert "group" in capsys.readouterr().err


def test_cli_solve_rejects_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for size in MALFORMED_SIZES:
        path.write_text(
            json.dumps(
                {
                    "m": 1,
                    "items": [{"id": 1, "size": size}],
                    "groups": [[1]],
                    "profits": [],
                }
            )
        )
        assert main(["solve", str(path)]) == 2
        assert "items[0].size" in capsys.readouterr().err


def test_loaded_group_listing_an_item_twice_is_named(tmp_path, capsys):
    path = tmp_path / "twice.json"
    doc = {"m": 1, "items": [{"id": 1, "size": "1/2"}], "groups": [[1, 1]], "profits": []}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"^group 0 lists item 1 twice$"):
        validate_instance(io.load_instance(path))
    assert main(["solve", str(path)]) == 2
    assert "group 0 lists item 1 twice" in capsys.readouterr().err


def test_cli_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--seed", "5", "--n", "8", "--groups", "3", "--bins", "3"]
    assert main([*args, "-o", str(a)]) == 0
    assert main([*args, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    validate_instance(io.load_instance(a), strict=True)


def test_cli_gen_impossible_spec(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["gen", "--seed", "1", "--n", "1", "--groups", "2", "--bins", "1", "-o", str(out)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, message",
    [
        (
            {"n": 10, "groups": 1, "bins": 1, "size_denominator": 4},
            r"^group of 10 items cannot fit budget 1/2 at grid 1/4$",
        ),
        ({"bins": 0}, r"^n, groups and bins must all be positive$"),
        ({"size_denominator": 0}, r"^size_denominator and max_profit must be positive$"),
        ({"flavor": "zipf"}, r"^unknown flavor 'zipf'$"),
        ({"n": 5.0}, r"^n must be an int, got 5\.0$"),
        ({"n": True}, r"^n must be an int, got True$"),
        ({"groups": 2.0}, r"^groups must be an int, got 2\.0$"),
        ({"bins": 2.5}, r"^bins must be an int, got 2\.5$"),
        ({"size_denominator": 4.0}, r"^size_denominator must be an int, got 4\.0$"),
        ({"max_profit": 2.5}, r"^max_profit must be an int, got 2\.5$"),
    ],
    ids=[
        "cannot-fit-budget",
        "non-positive-counts",
        "non-positive-sizes",
        "unknown-flavor",
        "float-n",
        "bool-n",
        "float-groups",
        "float-bins",
        "float-size-denominator",
        "float-max-profit",
    ],
)
def test_generate_rejects_bad_specs(change, message):
    spec = GeneratorSpec(seed=1, n=4, groups=2, bins=2)
    generate(spec)
    with pytest.raises(ValidationError, match=message):
        generate(dataclasses.replace(spec, **change))


def test_generated_instances_always_strict_valid():
    rng = random.Random(101)
    for seed in range(30):
        den = rng.choice([4, 16, 64])
        bins = rng.randint(1, 4)
        n = rng.randint(1, min(12, den * bins // 2))  # worst case: one group holds all
        spec = GeneratorSpec(
            seed=seed,
            n=n,
            groups=rng.randint(1, n),
            bins=bins,
            size_denominator=den,
        )
        validate_instance(generate(spec), strict=True)


def test_vod_flavor_properties():
    spec = GeneratorSpec(seed=9, n=20, groups=4, bins=4, flavor="vod")
    inst = generate(spec)
    validate_instance(inst, strict=True)
    for g in inst.groups:
        assert 2 <= len(g.members) <= 8
    # profits fall off with distance from each item's best bin
    for item in inst.items:
        best = max(range(inst.m), key=lambda j: inst.profit(item.id, j))
        for j in range(inst.m):
            for k in range(inst.m):
                if abs(j - best) < abs(k - best):
                    assert inst.profit(item.id, j) >= inst.profit(item.id, k)


def test_vod_flavor_needs_enough_items():
    with pytest.raises(ValidationError, match=r"^vod flavor needs n in \[4, 16\], got 3$"):
        generate(GeneratorSpec(seed=1, n=3, groups=2, bins=2, flavor="vod"))


def test_cli_check_ratio_floor(capsys):
    assert main(["check-lemma4", "--step", "0.125"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")


def test_cli_oracle(tmp_path, capsys):
    path = tmp_path / "inst.json"
    io.save_instance(make_instance(1, {1: F(1, 2)}, [[1]], {(1, 0): F(5)}), path)
    assert main(["oracle", str(path), "--groups", "1"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_cli_oracle_rejects_unknown_group(tmp_path, capsys):
    path = tmp_path / "inst.json"
    io.save_instance(make_instance(1, {1: F(1, 2)}, [[1]], {(1, 0): F(5)}), path)
    assert main(["oracle", str(path), "--groups", "7"]) == 2
    assert capsys.readouterr().err == "error: group 7 does not exist (1..1)\n"
    assert main(["oracle", str(path), "--groups", "1,x"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --groups must be comma-separated integers, got '1,x'\n"


def test_cli_exact(tmp_path, capsys):
    path = tmp_path / "inst.json"
    io.save_instance(worked_example(m=2), path)
    assert main(["exact", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "13"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "inst.json", "--k", "6"],  # no such option: the seed size is fixed
        ["check-lemma4", "--step", "0.5"],
        ["check-lemma4", "--step", "0"],
        ["check-lemma4", "--step", "nan"],
    ],
)
def test_cli_rejects_bad_numeric_arguments(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


GEN = ["gen", "--seed", "1", "--n", "4", "--groups", "2", "--bins", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        [*GEN, "--max-profit", "0", "-o", "{tmp}/x.json"],
        [*GEN, "--max-profit", "-3", "-o", "{tmp}/x.json"],
        [*GEN, "-o", "{tmp}/no/such/dir/x.json"],
        [*GEN, "-o", "{tmp}"],
        ["solve", "{tmp}/missing.json"],
        ["solve", "{tmp}"],
        ["solve", "{tmp}/latin1.json"],
        ["oracle", "{tmp}/missing.json", "--groups", "1"],
    ],
    ids=[
        "gen-zero-profit",
        "gen-negative-profit",
        "gen-missing-dir",
        "gen-onto-dir",
        "solve-missing",
        "solve-dir",
        "solve-non-utf8",
        "oracle-missing",
    ],
)
def test_cli_rejects_bad_files_and_specs(tmp_path, argv, capsys):
    # each case must reach main()'s handler as a GroupGapError or an OSError,
    # not escape as a traceback
    (tmp_path / "latin1.json").write_bytes('{"m": "é"}'.encode("latin-1"))
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
