import random
import re
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import groupgap
from groupgap import errors
from groupgap.errors import ValidationError
from groupgap.exact import solve_exact
from groupgap.lp_oracle import LpOracle
from groupgap.model import (
    Assignment,
    FractionalSolution,
    Group,
    Instance,
    Item,
    assignment_profit,
    is_feasible,
    parse_rational,
    render_rational,
    validate_instance,
)
from groupgap.pipeline import solve, upper_bound

from conftest import F, make_instance, outcome, random_instance
from reference import is_almost_feasible, validate_fractional


@given(st.fractions())
def test_rational_round_trip(q):
    assert parse_rational(render_rational(q)) == q


@pytest.mark.parametrize("text", ["1/0", "abc", "", "1/2/3"])
def test_parse_rational_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def _fraction_parse(text):
    """parse_rational as Fraction's parser alone reads ``text``."""
    try:
        return F(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None
    except ValueError:
        raise ValueError(f"malformed rational {text!r}") from None


PARSE_CASES = [
    "7", "007", "3/4", "+1/2", " 1/2 ", "1_000", "1.5", "1e3", "-3/6", "1/0", "0/0",
    "", "/", "1/", "/2", "\u0661\u0662", "\u00b2", "0/5", "12/08", "1 / 2", "3/4\n",
    "1" * 5000, "1/" + "1" * 5000,
]


@pytest.mark.parametrize("text", PARSE_CASES, ids=lambda text: repr(text)[:12])
def test_parse_rational_matches_fractions_parser(text):
    # The int() path for ASCII "p" and "p/q" must give Fraction's value, and
    # a text that Fraction rejects must raise the same message as before.
    assert outcome(parse_rational, text) == outcome(_fraction_parse, text)


@given(
    st.one_of(
        st.from_regex(r"\A[0-9]{0,4}(/[0-9]{0,4})?\Z"),
        st.text(alphabet="0123456789/+-_. eE\t\u0661\u00b2", max_size=8),
        st.text(max_size=6),
    )
)
def test_parse_rational_matches_fractions_parser_fuzzed(text):
    assert outcome(parse_rational, text) == outcome(_fraction_parse, text)


class _Int(int):
    def __repr__(self):
        return "an int subclass"

    __str__ = __repr__


class _Fraction(F):
    def __repr__(self):
        return "a Fraction subclass"

    __str__ = __repr__


@pytest.mark.parametrize(
    "value",
    [0, 7, -12, 10**40, F(3, 4), F(-6, 4), F(0), F(10, 5), True, False, _Int(5), _Fraction(3, 4)],
    ids=repr,
)
def test_render_rational_matches_str_of_fraction(value):
    assert render_rational(value) == str(F(value))


def test_validate_small_instance_ok():
    inst = make_instance(1, {1: F(1, 2)}, [[1]], {(1, 0): F(5)})
    validate_instance(inst, strict=True)


@pytest.mark.parametrize("seed", [917, 987, 1031, 1097, 1216])
def test_random_instance_fits_a_group_too_large_for_its_grid(seed):
    # One bin and a group of nine items: at 1/16 steps the half-capacity
    # budget holds only eight, so the helper draws that group at 1/32.
    inst = random_instance(random.Random(seed), n_max=9, m_max=4)
    validate_instance(inst, strict=True)
    assert inst.m == 1 and [len(g.members) for g in inst.groups] == [9]
    assert all(32 % it.size.denominator == 0 for it in inst.items)


def test_validate_oversized_group_strict_only():
    inst = make_instance(2, {1: F(3, 4), 2: F(3, 4)}, [[1, 2]], {})
    with pytest.raises(ValidationError, match=r"^group 0 has total size 3/2 > cap 1$"):
        validate_instance(inst, strict=True)
    validate_instance(inst, strict=False)


def test_validate_bad_sizes():
    with pytest.raises(ValidationError, match=r"^item 1 has size 0, must be in \(0, 1\]$"):
        validate_instance(make_instance(1, {1: F(0)}, [[1]], {}))
    with pytest.raises(ValidationError, match=r"^item 1 has size 3/2, must be in \(0, 1\]$"):
        validate_instance(make_instance(1, {1: F(3, 2)}, [[1]], {}))


def test_validate_bad_partition():
    with pytest.raises(ValidationError, match=r"^items \[2\] belong to no group$"):
        validate_instance(make_instance(1, {1: F(1, 2), 2: F(1, 2)}, [[1]], {}))
    with pytest.raises(ValidationError, match=r"^item 1 belongs to more than one group$"):
        validate_instance(make_instance(1, {1: F(1, 2)}, [[1], [1]], {}))
    listed_twice = Instance(1, (Item(1, F(1, 2)), Item(2, F(1, 4))), (Group(0, (1, 1, 2)),), {})
    with pytest.raises(ValidationError, match=r"^group 0 lists item 1 twice$"):
        validate_instance(listed_twice)
    with pytest.raises(ValidationError, match=r"^group 0 references unknown item 9$"):
        validate_instance(make_instance(1, {1: F(1, 2)}, [[1, 9]], {}))
    with pytest.raises(ValidationError, match=r"^group 1 is empty$"):
        validate_instance(make_instance(1, {1: F(1, 2)}, [[1], []], {}))
    # Two groups with id 0: the first is larger than m/2, the second hides
    # it from any lookup by id. make_instance numbers groups by position.
    twice = Instance(
        m=2,
        items=(Item(1, F(1)), Item(2, F(1, 2)), Item(3, F(1, 2))),
        groups=(Group(0, (1, 2)), Group(0, (3,))),
        profits={(1, 0): F(1), (3, 1): F(2)},
    )
    for check in (lambda i: validate_instance(i, strict=True), solve, upper_bound, solve_exact):
        with pytest.raises(ValidationError, match="^duplicate group id 0$"):
            check(twice)


@given(st.randoms(use_true_random=False), st.integers(1, 12))
def test_integer_view_scales_sizes_and_profits_exactly(rng, grid):
    """The integer view is the instance times its two lcms, and the LP
    oracle's tables built on it equal those built from the Fractions."""
    base = random_instance(rng)
    # random_instance draws int profits; rational ones vary profit_den too.
    profits = {key: p / rng.randint(1, grid) for key, p in base.profits.items()}
    inst = Instance(base.m, base.items, base.groups, profits)
    view = inst._units
    assert view.scale == lcm(*(it.size.denominator for it in inst.items))
    assert view.profit_den == lcm(*(p.denominator for p in profits.values()))
    for it in inst.items:
        assert view.sizes[it.id] == it.size * view.scale
    for i in inst.item_ids:
        for j in range(inst.m):
            assert view.profits.get((i, j), 0) == inst.profit(i, j) * view.profit_den

    # The oracle's tables, recomputed here from the Fractions alone.
    shat = {it.id: it.size * view.scale for it in inst.items}
    unit = {
        i: [(j, inst.profit(i, j) / shat[i]) for j in range(inst.m) if inst.profit(i, j) > 0]
        for i in shat
    }
    cost_den = lcm(*(u.denominator for row in unit.values() for _j, u in row))
    arcs = {i: [(j, -u * cost_den) for j, u in row] for i, row in unit.items()}
    oracle = LpOracle(inst)
    assert oracle._cost_den == cost_den
    assert oracle._shat == shat
    assert oracle._arcs == arcs
    assert all(type(c) is int for row in oracle._arcs.values() for _j, c in row)


def test_validate_profits():
    with pytest.raises(ValidationError, match=r"^profit for item 1 in bin 1 is -1, must be >= 0"):
        validate_instance(make_instance(1, {1: F(1, 2)}, [[1]], {(1, 0): F(-1)}))
    with pytest.raises(ValidationError, match=r"^profit for item 1 references bin 6, valid"):
        validate_instance(make_instance(1, {1: F(1, 2)}, [[1]], {(1, 5): F(1)}))


def test_validate_boundaries_and_messages():
    """The integer checks accept and reject exactly at the boundaries, with
    the messages the rational comparisons gave."""
    validate_instance(make_instance(2, {1: F(1)}, [[1]], {(1, 0): F(0)}), strict=True)
    for size, text in ((F(0), "0"), (F(98, 97), "98/97")):
        with pytest.raises(ValidationError, match=rf"^item 1 has size {text}, must be in \(0, 1\]$"):
            validate_instance(make_instance(2, {1: size}, [[1]], {}))
    with pytest.raises(ValidationError, match=r"^profit for item 1 in bin 2 is -1/7, must be >= 0$"):
        validate_instance(make_instance(2, {1: F(1, 2)}, [[1]], {(1, 1): F(-1, 7)}))
    exactly_half = {1: F(1), 2: F(1, 2)}  # s(G) = m/2 with m = 3
    validate_instance(make_instance(3, exactly_half, [[1, 2]], {}), strict=True)
    over = {**exactly_half, 3: F(1, 97)}
    with pytest.raises(ValidationError, match=r"^group 0 has total size 293/194 > cap 3/2$"):
        validate_instance(make_instance(3, over, [[1, 2, 3]], {}), strict=True)
    validate_instance(make_instance(3, over, [[1, 2, 3]], {}))


def test_validate_rejects_bad_number_types():
    """A float or bool size or profit, or a bin count that is not an int
    (a bool included), is a ValidationError that names the item, the bin or
    m, from every entry point."""
    item = groupgap.Item(id=1, size=F(1, 2))
    group = groupgap.Group(id=0, members=(1,))
    cases = [
        (groupgap.Instance(2, (groupgap.Item(1, 0.5),), (group,), {}), r"^item 1 has size 0\.5,"),
        (groupgap.Instance(2, (item,), (group,), {(1, 1): 3.0}), r"^profit .* 1 in bin 2 is 3\.0,"),
        (groupgap.Instance(2.0, (item,), (group,), {}), r"^bin count m .* got 2\.0$"),
        (groupgap.Instance("2", (item,), (group,), {}), r"^bin count m .* got '2'$"),
        # bools are ints to Python, but not numbers in an instance file
        (groupgap.Instance(True, (item,), (group,), {}), r"^bin count m .* got True$"),
        (groupgap.Instance(2, (groupgap.Item(1, True),), (group,), {}), r"^item 1 has size True,"),
        (groupgap.Instance(2, (item,), (group,), {(1, 0): True}), r"^profit .* bin 1 is True,"),
    ]
    entry_points = [
        validate_instance,
        groupgap.solve,
        groupgap.upper_bound,
        groupgap.solve_exact,
    ]
    for inst, message in cases:
        for call in entry_points:
            with pytest.raises(groupgap.ValidationError, match=message):
                call(inst)
    # ints are rationals too
    validate_instance(groupgap.Instance(2, (groupgap.Item(1, 1),), (group,), {(1, 0): 4}))


def test_validate_rejects_malformed_profit_keys():
    """A profit key that is not an (item, bin) pair, or a bin index that is
    not an int (a bool included), is a ValidationError from every entry
    point, never a TypeError or a profit dropped without a word."""
    item = groupgap.Item(id=1, size=F(1, 2))
    group = groupgap.Group(id=0, members=(1,))
    cases = [
        (1, r"^profit key 1 is not an \(item, bin\) pair$"),
        ((1, 0, 0), r"^profit key \(1, 0, 0\) is not an \(item, bin\) pair$"),
        ((1, "0"), r"^profit for item 1 has bin index '0', not an int$"),
        ((1, 0.5), r"^profit for item 1 has bin index 0\.5, not an int$"),
        ((1, True), r"^profit for item 1 has bin index True, not an int$"),
    ]
    entry_points = [validate_instance, solve, upper_bound, solve_exact]
    for key, message in cases:
        inst = groupgap.Instance(2, (item,), (group,), {key: F(3)})
        for call in entry_points:
            with pytest.raises(ValidationError, match=message):
                call(inst)


def test_validate_rejects_ids_that_are_not_ints():
    """True and 1.0 hash and compare equal to 1, so as an item id, a group
    id, a group member or a profit key's item they would pass for item or
    group 1. Each is a ValidationError from every entry point."""
    entry_points = [validate_instance, solve, upper_bound, solve_exact]
    for one in (True, 1.0):
        # (item id, group id, group member, profit key's item, message)
        cases = [
            (one, 0, one, 1, rf"^item id {one!r} is not an int$"),
            (1, one, 1, 1, rf"^group id {one!r} is not an int$"),
            (1, 0, one, 1, rf"^group 0 lists item {one!r}, not an int$"),
            (1, 0, 1, one, rf"^profit key \({one!r}, 0\) has item {one!r}, not an int$"),
        ]
        for item, group, member, key_item, message in cases:
            inst = groupgap.Instance(
                2,
                (groupgap.Item(item, F(1, 2)),),
                (groupgap.Group(group, (member,)),),
                {(key_item, 0): F(3)},
            )
            for call in entry_points:
                with pytest.raises(ValidationError, match=message):
                    call(inst)


def test_validate_accepts_int_subclasses():
    """An int subclass other than bool is an int, as an item id, a group
    id, a group member and a profit key's item and bin."""

    class Id(int):
        pass

    inst = Instance(2, (Item(Id(1), F(1, 2)),), (Group(Id(0), (Id(1),)),), {(Id(1), Id(0)): F(3)})
    validate_instance(inst, strict=True)
    assert upper_bound(inst) == 3


def _check_instance(*fields):
    return lambda: validate_instance(Instance(*fields))


def _check_fractional(entries, value):
    inst = make_instance(2, {1: F(1, 2), 2: F(3, 4)}, [[1], [2]], {(1, 0): F(4)})
    return lambda: validate_fractional(inst, FractionalSolution(entries, value))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            _check_instance(2, (Item(1, F(1, 2)), Item(1, F(1, 4))), (Group(0, (1,)),), {}),
            r"^duplicate item id 1$",
        ),
        (
            _check_instance(2, (Item(1, F(1, 2)),), (Group(0, (1,)),), {(9, 0): F(3)}),
            r"^profit entry references unknown item 9$",
        ),
        (_check_fractional({(9, 0): F(1)}, F(0)), r"^fractional entry references unknown item 9$"),
        (
            _check_fractional({(1, 2): F(1)}, F(0)),
            r"^fractional entry references bin 2 out of range$",
        ),
        (
            _check_fractional({(1, 0): F(0)}, F(0)),
            r"^fraction for \(1, 0\) is 0, must be in \(0, 1\]$",
        ),
        (
            _check_fractional({(1, 0): F(1), (1, 1): F(1, 2)}, F(4)),
            r"^item 1 has total fraction 3/2 > 1$",
        ),
        (
            _check_fractional({(1, 0): F(1), (2, 0): F(1)}, F(4)),
            r"^bin 0 has fractional load 5/4 > 1$",
        ),
        (
            _check_fractional({(1, 0): F(1)}, F(5)),
            r"^cached fractional value does not match entries$",
        ),
    ],
    ids=[
        "duplicate-item-id",
        "profit-for-unknown-item",
        "fraction-for-unknown-item",
        "fraction-bin-out-of-range",
        "fraction-not-positive",
        "item-total-above-1",
        "bin-load-above-1",
        "value-mismatch",
    ],
)
def test_validation_rejects_bad_input(call, message):
    """The input checks of ``validate_instance`` and ``validate_fractional``
    that no other test reaches, each on input that only it rejects."""
    with pytest.raises(ValidationError, match=message):
        call()


def test_assignment_profit_examples():
    inst = make_instance(
        2,
        {1: F(1, 2), 2: F(1, 2)},
        [[1, 2]],
        {(1, 0): F(10), (2, 1): F(3)},
    )
    empty = Assignment(bins=(frozenset(), frozenset()))
    assert assignment_profit(inst, empty) == 0
    single = Assignment(bins=(frozenset({1}), frozenset()))
    assert assignment_profit(inst, single) == 10
    both = Assignment(bins=(frozenset({1}), frozenset({2})))
    assert assignment_profit(inst, both) == 13


def test_feasible_implies_almost_feasible():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randint(1, 4)
        n = rng.randint(0, 6)
        sizes = {i: F(rng.randint(1, 16), 16) for i in range(1, n + 1)}
        inst = make_instance(m, sizes, [sorted(sizes)] if sizes else [], {})
        bins = [set() for _ in range(m)]
        loads = [F(0)] * m
        for i in sorted(sizes):
            j = rng.randrange(m)
            if loads[j] + sizes[i] <= 1:
                bins[j].add(i)
                loads[j] += sizes[i]
        u = Assignment(bins=tuple(frozenset(b) for b in bins))
        assert is_feasible(inst, u)
        assert is_almost_feasible(inst, u)


def test_almost_feasible_boundary():
    inst = make_instance(1, {1: F(3, 5), 2: F(3, 5), 3: F(3, 5)}, [[1, 2, 3]], {})
    two = Assignment(bins=(frozenset({1, 2}),))
    three = Assignment(bins=(frozenset({1, 2, 3}),))
    assert not is_feasible(inst, two)
    assert is_almost_feasible(inst, two)
    assert not is_almost_feasible(inst, three)


def test_malformed_assignments_are_neither_feasible_nor_almost():
    one_bin = make_instance(1, {1: F(1, 2), 2: F(1, 2), 3: F(1)}, [[1, 2, 3]], {})
    two_bins = make_instance(2, {1: F(1, 2), 2: F(1, 2)}, [[1, 2]], {(1, 0): F(1)})
    malformed = [
        # a second bin the instance does not have, holding 3/2
        (one_bin, Assignment(bins=(frozenset({1}), frozenset({2, 3})))),
        # fewer bins than the instance has
        (two_bins, Assignment(bins=(frozenset({1}),))),
        # item 1 placed twice
        (two_bins, Assignment(bins=(frozenset({1}), frozenset({1, 2})))),
        # item 9, which the instance does not have
        (two_bins, Assignment(bins=(frozenset({9}), frozenset()))),
    ]
    for inst, u in malformed:
        assert not is_feasible(inst, u)
        assert not is_almost_feasible(inst, u)


def test_profit_invariant_under_bin_permutation_when_symmetric():
    rng = random.Random(11)
    sizes = {i: F(rng.randint(1, 8), 16) for i in range(1, 6)}
    profits = {}
    for i in sizes:
        p = F(rng.randint(0, 20))
        for j in range(3):
            profits[(i, j)] = p
    inst = make_instance(3, sizes, [sorted(sizes)], profits)
    u = Assignment(bins=(frozenset({1, 2}), frozenset({3}), frozenset({4, 5})))
    for perm in ((1, 2, 0), (2, 0, 1), (0, 2, 1)):
        permuted = Assignment(bins=tuple(u.bins[p] for p in perm))
        assert assignment_profit(inst, permuted) == assignment_profit(inst, u)


PUBLIC_NAMES = """
    Assignment GeneratorSpec Group GroupGapError Instance Item LpOracle
    SolveReport ValidationError assignment_profit generate
    is_feasible parse_rational render_rational solve solve_exact
    upper_bound validate_instance
""".split()


def test_public_surface_is_pinned():
    assert sorted(groupgap.__all__) == sorted(PUBLIC_NAMES)
    for name in groupgap.__all__:
        assert getattr(groupgap, name) is not None
    # perfbench/run.py reaches these through the package's top level
    bench_uses = {
        "GeneratorSpec", "generate", "validate_instance", "solve", "is_feasible",
        "assignment_profit",
    }
    assert bench_uses <= set(groupgap.__all__)


# Each class names one decision a caller makes; the message names the check.
ERROR_CLASSES = {
    "GroupGapError": "Exception",
    "ValidationError": "GroupGapError",
    "PreconditionViolated": "GroupGapError",
    "LimitExceeded": "GroupGapError",
    "InvariantViolated": "GroupGapError",
}


def test_error_classes_are_pinned():
    defined = {
        name: ", ".join(base.__name__ for base in cls.__bases__)
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, BaseException)
    }
    assert defined == ERROR_CLASSES


def test_readme_export_list_matches_all():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    found = re.search(
        r"exports exactly (\d+) names:\n\n(.*?)\n\n", readme.read_text(encoding="utf-8"), re.S
    )
    assert found, "README.md has no 'exports exactly N names:' list"
    count, names = int(found.group(1)), re.findall(r"`(\w+)`", found.group(2))
    assert count == len(names) == len(groupgap.__all__)
    assert sorted(names) == sorted(groupgap.__all__)
