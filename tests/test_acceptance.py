"""Acceptance suite: one test per certified guarantee, one PASS line each.

Every inequality here is checked in exact rational arithmetic (zero
tolerance) except the float-domain ratio-floor verifier, which carries its
stated 1e-9 slack.
"""

import math
import random
import time

import pytest

from groupgap import submodular
from groupgap.exact import (
    WeightedBipartiteGraph,
    exhaustive_knapsack_max,
    matching_value,
    matching_value_table,
    solve_exact,
)
from groupgap.filling import REINSERT, SPLIT_ACROSS_VACANTS, make_feasible_traced
from groupgap.lp_oracle import LpOracle
from groupgap.model import assignment_profit, is_almost_feasible, is_feasible
from groupgap.pipeline import solve
from groupgap.rounding import round_to_assignment
from groupgap.submodular import certify_ratio_bound, maximize_with_reserve

from conftest import (
    F,
    coverage_oracle,
    make_instance,
    modular_oracle,
    random_almost_feasible,
    random_ground,
    random_instance,
    random_saturated_solution,
    scaled_matching_graph,
)


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


def test_criterion_1_lp_value_diminishing_returns(announce):
    start = time.perf_counter()
    rng = random.Random(1001)
    item_checks = group_checks = 0
    for _ in range(200):
        inst = random_instance(rng, n_max=8, m_max=4, den=16)
        oracle = LpOracle(inst)
        ids = sorted(inst.item_ids)
        for _ in range(3):
            if len(ids) < 2:
                break
            u = rng.choice(ids)
            rest = [i for i in ids if i != u]
            large = frozenset(i for i in rest if rng.random() < 0.7)
            small = frozenset(i for i in large if rng.random() < 0.6)
            gain_small = oracle.value(small | {u}) - oracle.value(small)
            gain_large = oracle.value(large | {u}) - oracle.value(large)
            assert gain_small >= gain_large
            assert oracle.value(small) >= 0
            assert oracle.value(small) <= oracle.value(large)
            item_checks += 1
        gids = sorted(g.id for g in inst.groups)
        if len(gids) >= 2:
            ug = rng.choice(gids)
            rest_g = [g for g in gids if g != ug]
            large_g = frozenset(g for g in rest_g if rng.random() < 0.7)
            small_g = frozenset(g for g in large_g if rng.random() < 0.6)
            gain_small = oracle.group_value(small_g | {ug}) - oracle.group_value(small_g)
            gain_large = oracle.group_value(large_g | {ug}) - oracle.group_value(large_g)
            assert gain_small >= gain_large
            assert 0 <= oracle.group_value(small_g) <= oracle.group_value(large_g)
            group_checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    announce(
        f"[acceptance 1/8] LP-value diminishing returns: PASS "
        f"(200 instances, {item_checks} item-level + {group_checks} group-level "
        f"inequalities, exact, {elapsed:.1f}s)"
    )


def check_reserved_capacity_guarantee():
    rng = random.Random(2002)
    for trial in range(100):
        sizes, cap = random_ground(rng, n_max=8)
        f = (modular_oracle if trial % 2 == 0 else coverage_oracle)(rng, sizes)
        picked = maximize_with_reserve(f, sizes, cap)
        used = sum((sizes[i] for i in picked), F(0))
        assert used <= cap / 2
        optimum = exhaustive_knapsack_max(f, sizes, cap)
        assert 3 * f(picked) >= optimum


def test_criterion_2_reserved_capacity_guarantee(announce):
    start = time.perf_counter()
    check_reserved_capacity_guarantee()
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    announce(
        f"[acceptance 2/8] half-capacity selection keeps >= 1/3 of the "
        f"full-capacity optimum: PASS (100 oracles, exact, {elapsed:.1f}s)"
    )


def test_criterion_2_holds_on_the_fallback_path(monkeypatch):
    # a spent budget hands every search to the guess-greedy at once
    monkeypatch.setattr(submodular, "_SOLVE_BUDGET", 0)
    check_reserved_capacity_guarantee()


def test_criterion_3_rounding_guarantee(announce):
    start = time.perf_counter()
    rng = random.Random(3003)
    for _ in range(200):
        inst = random_instance(rng, n_max=8, m_max=4, den=16)
        x = random_saturated_solution(rng, inst)
        u = round_to_assignment(inst, x)
        assert assignment_profit(inst, u) >= x.value
        assert is_almost_feasible(inst, u)
        assert u.placed_items() == x.support_items()
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    announce(
        f"[acceptance 3/8] rounding keeps the fractional value and stays "
        f"almost feasible: PASS (200 solutions, exact, {elapsed:.1f}s)"
    )


def test_criterion_4_filling_guarantee(announce):
    start = time.perf_counter()
    rng = random.Random(4004)
    split_fired = 0
    for _ in range(500):
        inst, u = random_almost_feasible(rng)
        before = assignment_profit(inst, u)
        fixed, trace = make_feasible_traced(inst, u)
        assert is_feasible(inst, fixed)
        assert 2 * assignment_profit(inst, fixed) >= before
        assert fixed.placed_items() == u.placed_items()
        for step in trace:
            for i in step.evicted:
                assert inst.size(i) <= F(1, 2)
            if step.kind == SPLIT_ACROSS_VACANTS:
                over_count, vacant_count = step.counts
                assert vacant_count > 2 * over_count
                split_fired += 1
            if step.kind != REINSERT:
                assert 2 * step.profit_after >= step.profit_before
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    assert split_fired > 0, "fuzzing must exercise the two-partner move"
    announce(
        f"[acceptance 4/8] filling yields a feasible assignment with >= half "
        f"the profit: PASS (500 assignments, {split_fired} two-partner moves, "
        f"exact, {elapsed:.1f}s)"
    )


def test_criterion_5_end_to_end_ratio(announce):
    start = time.perf_counter()
    rng = random.Random(5005)
    for _ in range(50):
        inst = random_instance(rng, n_max=10, m_max=3, den=16, l_max=4)
        assignment, report = solve(inst)
        assert report.all_certified()
        assert 2 * report.final_profit >= report.group_lp_value
        assert is_feasible(inst, assignment)
        optimum, _witness = solve_exact(inst)
        assert 6 * report.final_profit >= optimum
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    announce(
        f"[acceptance 5/8] end-to-end profit is >= 1/6 of the exact optimum: "
        f"PASS (50 instances, exact, {elapsed:.1f}s)"
    )


def test_criterion_6_ratio_floor_grid(announce):
    start = time.perf_counter()
    report = certify_ratio_bound(step=1 / 64)
    assert report.passed
    assert report.min_value >= 1 / 3 - 1e-9
    origin = 1 - math.exp(-0.5)
    assert abs(origin - 0.393469) < 1e-5
    corner = 5 / 6 - 1 / 18 - math.sqrt(1 + 16 * math.exp(-1)) / 6
    assert abs(corner - 0.34043) < 1e-5
    assert corner >= 1 / 3
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    announce(
        f"[acceptance 6/8] ratio floor >= 1/3 on the 1/64 grid: PASS "
        f"(min {report.min_value:.6f} at {report.argmin}, "
        f"{report.skipped} degenerate points skipped, {elapsed:.1f}s)"
    )


def test_criterion_7_lp_value_matches_integral_matching(announce):
    start = time.perf_counter()
    rng = random.Random(7007)
    checks = 0
    for _ in range(50):
        m = rng.randint(1, 3)
        sizes = {}
        scaled_total = 0
        cap = min(12, 24 - 4 * m)  # total nodes <= 24 and <= 12 item copies
        for i in range(1, 5):
            num = rng.randint(1, 4)  # quarters: denominators divide 4
            if scaled_total + num > cap:
                break
            sizes[i] = F(num, 4)
            scaled_total += num
        if not sizes:
            sizes = {1: F(1, 4)}
        profits = {
            (i, j): F(rng.randint(0, 9))
            for i in sizes
            for j in range(m)
            if rng.random() < 0.8
        }
        profits = {k: v for k, v in profits.items() if v > 0}
        inst = make_instance(m, sizes, [sorted(sizes)], profits)
        ids = sorted(sizes)
        subsets = [ids, [i for i in ids if rng.random() < 0.5]]
        for subset in subsets:
            graph = scaled_matching_graph(inst, subset)
            assert LpOracle(inst).value(subset) == matching_value(graph, range(graph.left))
            checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    announce(
        f"[acceptance 7/8] LP value equals the unit-expansion matching value: "
        f"PASS (50 instances, {checks} exact equalities, {elapsed:.1f}s)"
    )


def test_criterion_8_matching_value_monotone_submodular(announce):
    start = time.perf_counter()
    rng = random.Random(8008)
    pair_checks = 0
    for _ in range(100):
        left = rng.randint(2, 6)
        right = rng.randint(2, 8)
        weights = {
            (l, r): F(rng.randint(0, 12))
            for l in range(left)
            for r in range(right)
            if rng.random() < 0.55
        }
        graph = WeightedBipartiteGraph(left=left, right=right, weights=weights)
        table = matching_value_table(graph)
        for s_mask in range(1 << left):
            for t_mask in range(1 << left):
                union, inter = s_mask | t_mask, s_mask & t_mask
                assert table[s_mask] + table[t_mask] >= table[union] + table[inter]
                if s_mask & t_mask == s_mask:
                    assert table[s_mask] <= table[t_mask]
                pair_checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    announce(
        f"[acceptance 8/8] partial matching value is monotone and submodular: "
        f"PASS (100 graphs, {pair_checks} subset pairs, exact, {elapsed:.1f}s)"
    )
