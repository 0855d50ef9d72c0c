import random
from itertools import combinations

import pytest

from groupgap import rounding, submodular
from groupgap._flow import FlowNetwork
from groupgap.errors import ValidationError
from groupgap.exact import solve_exact
from groupgap.generate import GeneratorSpec, generate
from groupgap.lp_oracle import LpOracle
from groupgap.model import assignment_profit, is_feasible
from groupgap.pipeline import solve, upper_bound
from groupgap.submodular import maximize_with_reserve

from conftest import F, make_instance, random_instance, worked_example


def test_trivial_single_item():
    inst = make_instance(1, {1: F(1, 2)}, [[1]], {(1, 0): F(5)})
    assignment, report = solve(inst)
    assert assignment.bins == (frozenset({1}),)
    assert report.final_profit == 5
    assert report.group_lp_value == 5
    assert report.all_certified()


def test_worked_example_end_to_end():
    inst = worked_example(m=3)
    assignment, report = solve(inst)
    assert report.selected_groups == (0,)
    assert report.group_lp_value == 15
    assert report.fractional_value == 15
    assert report.rounded_profit == 16
    assert report.final_profit == 13
    assert report.satisfied_profit == 13
    assert 2 * report.final_profit >= report.group_lp_value
    assert report.all_certified()
    assert is_feasible(inst, assignment)
    optimum, _ = solve_exact(inst)
    assert optimum == 13
    assert 6 * report.final_profit >= optimum


def test_rejects_oversized_group():
    with pytest.raises(ValidationError, match=r"^group 0 has total size 6/5 > cap 1$"):
        solve(worked_example(m=2))


def test_empty_instance_degenerates_cleanly():
    inst = make_instance(2, {}, [], {})
    assignment, report = solve(inst)
    assert report.final_profit == 0
    assert report.selected_groups == ()
    assert report.all_certified()
    assert assignment.bins == (frozenset(), frozenset())


def test_empty_selection_on_worthless_instance():
    inst = make_instance(2, {1: F(1, 4)}, [[1]], {})
    assignment, report = solve(inst)
    assert report.final_profit == 0
    assert report.all_certified()
    assert is_feasible(inst, assignment)


def test_group_choice_respects_half_capacity():
    # both groups are worth packing but together exceed half the capacity
    inst = make_instance(
        2,
        {1: F(3, 4), 2: F(3, 4)},
        [[1], [2]],
        {(1, 0): F(8), (1, 1): F(8), (2, 0): F(7), (2, 1): F(7)},
    )
    assignment, report = solve(inst)
    assert report.selected_groups == (0,)
    assert report.final_profit == 8
    total = inst.total_size(assignment.placed_items())
    assert total <= F(inst.m, 2)


def test_upper_bound_examples():
    integral = make_instance(
        2, {1: F(1, 2), 2: F(1, 2)}, [[1], [2]], {(1, 0): F(4), (2, 1): F(6)}
    )
    assert upper_bound(integral) == 10
    mixed = make_instance(
        1, {1: F(3, 4), 2: F(1, 2)}, [[1, 2]], {(1, 0): F(4), (2, 0): F(3)}
    )
    assert upper_bound(mixed) == F(17, 3)


def test_upper_bound_rejects_invalid_instances():
    oversized = make_instance(1, {1: F(2)}, [[1]], {(1, 0): F(1)})
    with pytest.raises(ValidationError, match=r"^item 1 has size 2, must be in \(0, 1\]$"):
        upper_bound(oversized)
    stray_bin = make_instance(1, {1: F(1, 2)}, [[1]], {(1, 0): F(1), (1, 4): F(7)})
    with pytest.raises(ValidationError, match=r"^profit for item 1 references bin 5, valid range"):
        upper_bound(stray_bin)


def test_upper_bound_dominates_exact_optimum():
    rng = random.Random(89)
    for _ in range(15):
        inst = random_instance(rng, n_max=6, m_max=3, l_max=3)
        optimum, _ = solve_exact(inst)
        assert upper_bound(inst) >= optimum


def test_end_to_end_ratio_small_loop():
    rng = random.Random(97)
    for _ in range(10):
        inst = random_instance(rng, n_max=8, m_max=3, l_max=3)
        assignment, report = solve(inst)
        assert report.all_certified()
        assert is_feasible(inst, assignment)
        assert assignment_profit(inst, assignment) == report.final_profit
        optimum, _ = solve_exact(inst)
        assert 6 * report.final_profit >= optimum
        assert report.upper_bound == LpOracle(inst).value(inst.item_ids)


def test_traced_solve_exposes_fill_steps():
    inst = worked_example(m=3)
    _assignment, report = solve(inst)
    assert len(report.fill_steps) == 1
    seconds = report.stage_seconds
    assert set(seconds) == {"select", "lp", "round", "fill", "bound", "total"}
    assert min(seconds.values()) >= 0
    # total spans select to fill and leaves the upper-bound LP out.
    stages = seconds["select"] + seconds["lp"] + seconds["round"] + seconds["fill"]
    assert seconds["total"] == pytest.approx(stages)


def test_selection_reads_lp_values_as_ints_in_one_unit():
    # The search gets group_value * _cost_den as an int, and selects what it
    # selects on the Fraction values themselves.
    rng = random.Random(59)
    for _ in range(60):
        inst = random_instance(rng, n_max=8, m_max=4)
        oracle = LpOracle(inst)

        def units(groups):
            return oracle._value_units(inst.group_items(groups))

        gids = [g.id for g in inst.groups]
        for _ in range(6):
            subset = frozenset(rng.sample(gids, rng.randint(0, len(gids))))
            got = units(subset)
            assert type(got) is int
            assert got == oracle.group_value(subset) * oracle._cost_den
        sizes = {g: inst.group_size(g) for g in gids}
        assert maximize_with_reserve(units, sizes, F(inst.m)) == maximize_with_reserve(
            oracle.group_value, sizes, F(inst.m)
        )
    assert not hasattr(oracle, "cost_den")


@pytest.mark.parametrize("n, groups, bins, flavor", [(14, 7, 3, "uniform"), (36, 6, 12, "vod")])
def test_selection_is_exact_on_the_lp_oracle(n, groups, bins, flavor):
    # The search prunes on gains taken at ancestors, which bound the gains
    # below them only because the group LP value is submodular; here it
    # meets the brute-force maximum over every group set within m/2.
    for seed in range(1, 31):
        inst = generate(GeneratorSpec(seed=seed, n=n, groups=groups, bins=bins, flavor=flavor))
        oracle = LpOracle(inst)
        gids = [g.id for g in inst.groups]
        best = max(
            oracle.group_value(subset)
            for r in range(len(gids) + 1)
            for subset in combinations(gids, r)
            if 2 * sum(inst.group_size(g) for g in subset) <= inst.m
        )
        _assignment, report = solve(inst)
        assert report.group_lp_value == best


def test_selection_oracle_misses_at_scale(monkeypatch):
    # The search evaluates a gain only when a bound or a branch needs it:
    # 110 memo misses here, where evaluating every fitting candidate at
    # every node made 1,538.
    oracles = []
    mask_oracle = submodular._mask_oracle

    def keeping(f, ids):
        oracles.append(mask_oracle(f, ids))
        return oracles[-1]

    monkeypatch.setattr(submodular, "_mask_oracle", keeping)
    inst = generate(GeneratorSpec(seed=1, n=200, groups=48, bins=20, flavor="uniform"))
    _assignment, report = solve(inst)
    assert report.all_certified()
    assert len(oracles) == 1
    assert oracles[0].cache_info().misses < 256


def test_selection_solve_count_at_scale(monkeypatch):
    # 7 transport solves in all here, the pipeline's solution and upper
    # bound included. A search that evaluates every fitting candidate at
    # every node makes 60, and the guess-greedy alone needs 22,627.
    solves = 0
    transport = LpOracle._transport

    def counting(self, *args, **kwargs):
        nonlocal solves
        solves += 1
        return transport(self, *args, **kwargs)

    monkeypatch.setattr(LpOracle, "_transport", counting)
    inst = generate(GeneratorSpec(seed=1, n=60, groups=16, bins=10, flavor="uniform"))
    _assignment, report = solve(inst)
    assert report.all_certified()
    assert solves < 16


def count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from here on; returns a live counter."""
    calls = {"n": 0}
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_warm_lp_solves_cut_shortest_path_passes(monkeypatch):
    # Each LP re-optimised from a kept subset's flow, or continued from its
    # replayed paths, needs fewer Bellman-Ford searches: 403 here, 601 with
    # no warm start from a kept subset, 767 with no replayed paths and
    # 1,904 with neither.
    passes = count_calls(monkeypatch, FlowNetwork, "_shortest_path")
    inst = generate(GeneratorSpec(seed=1, n=200, groups=48, bins=20, flavor="uniform"))
    _assignment, report = solve(inst)
    assert report.all_certified()
    assert passes["n"] < 500


def test_later_searches_skip_scans_work_pin(monkeypatch):
    # Reads of net.to over one solve: one per edge a search relaxes, two per
    # edge of each augmenting path. 114,944 when every search scanned each
    # dirty node; searches after a run's first skip what cannot beat the
    # sink, with the same 100 searches and the same outputs: 35,884. The
    # rounding's matching took 48 of those searches on the whole slot graph;
    # it now runs only the one component whose walk stops short, as its own
    # network (test_matching_searches_work_pin), so 62 searches and 32,132
    # reads, with the same outputs.
    reads = {"n": 0}

    class CountedReads(list):
        def __getitem__(self, e):
            reads["n"] += 1
            return list.__getitem__(self, e)

    build = FlowNetwork.__init__

    def counted_build(net, *args):
        build(net, *args)
        net.to = CountedReads(net.to)

    monkeypatch.setattr(FlowNetwork, "__init__", counted_build)
    searches = count_calls(monkeypatch, FlowNetwork, "_shortest_path")
    inst = generate(GeneratorSpec(seed=1, n=120, groups=2, bins=16, flavor="uniform"))
    _assignment, report = solve(inst)
    assert report.all_certified()
    assert searches["n"] == 62
    assert reads["n"] == 32_132


def test_matching_searches_work_pin(monkeypatch):
    # The slot graph of this solve has 102 items, 103 slots and 87 connected
    # components, 86 of them one item joined to one slot. The walk stops
    # short in the one other component, of 32 arcs, and only that component
    # runs as a network: 10 Bellman-Ford searches. When the walk's first
    # stop sent the whole slot graph to one network, the matching took 48.
    searches = count_calls(monkeypatch, FlowNetwork, "_shortest_path")
    runs = count_calls(monkeypatch, FlowNetwork, "run")
    matching = rounding.complete_matching
    counted = {}

    def counting(g):
        before = searches["n"], runs["n"]
        result = matching(g)
        counted["searches"], counted["runs"] = searches["n"] - before[0], runs["n"] - before[1]
        return result

    monkeypatch.setattr(rounding, "complete_matching", counting)
    inst = generate(GeneratorSpec(seed=1, n=120, groups=2, bins=16, flavor="uniform"))
    _assignment, report = solve(inst)
    assert report.all_certified()
    assert counted == {"searches": 10, "runs": 1}


def test_solution_reuses_the_selection_flow(monkeypatch):
    # Two groups: the replay answers the empty set and stops short on each
    # group (neither fits its items' best bins), which is solved cold, and so
    # is the upper bound: the larger group lacks 18 items, more than the 15
    # that the replay of all items leaves unshipped. The selected group's
    # fractional solution then reuses its kept flow, so 3 solves in all
    # (4 when the solution was solved again).
    solves = count_calls(monkeypatch, LpOracle, "_transport")
    inst = generate(GeneratorSpec(seed=1, n=120, groups=2, bins=16, flavor="uniform"))
    _assignment, report = solve(inst)
    assert report.all_certified()
    assert solves["n"] == 3


def test_solve_reads_the_group_lp_value_and_bound_through_value(monkeypatch):
    # The selection reads ints through _value_units; the pipeline's own
    # reads of the selected groups' LP value and of the upper bound go
    # through value, once each per solve.
    calls = count_calls(monkeypatch, LpOracle, "value")
    reads = count_calls(monkeypatch, LpOracle, "_value_units")
    inst = worked_example(m=3)
    _assignment, report = solve(inst)
    assert report.all_certified()
    assert calls["n"] == 2
    assert reads["n"] > calls["n"]
