import hashlib
import random

import pytest

from groupgap import filling, io
from groupgap.errors import InvariantViolated, PreconditionViolated
from groupgap.filling import (
    KEEP_BETTER_HALF,
    MOVE_BIG_TO_VACANT,
    REINSERT,
    SPLIT_ACROSS_VACANTS,
    SWAP_WITH_VACANT,
    _FillState,
    _next_move,
    feasible_partition,
    _reinsert,
    make_feasible_traced,
)
from groupgap.model import (
    Assignment,
    assignment_profit,
    is_feasible,
)

from conftest import F, make_instance, random_almost_feasible, worked_example


def test_partition_witness_alone():
    inst = make_instance(1, {1: F(3, 5)}, [[1]], {})
    assert feasible_partition(inst, frozenset({1})) == (frozenset({1}), frozenset())


def test_partition_two_bigs_split():
    inst = make_instance(1, {1: F(3, 5), 2: F(3, 5)}, [[1, 2]], {})
    side_a, side_b = feasible_partition(inst, frozenset({1, 2}))
    assert side_a == {1} and side_b == {2}


def test_partition_first_fit_trace():
    inst = make_instance(
        1, {1: F(3, 5), 2: F(3, 10), 3: F(1, 2)}, [[1, 2, 3]], {}
    )
    side_a, side_b = feasible_partition(inst, frozenset({1, 2, 3}))
    assert side_a == {1, 2} and side_b == {3}
    assert inst.total_size(side_a) == F(9, 10)
    assert inst.total_size(side_b) == F(1, 2)


def test_partition_rejects_bad_witness():
    # Removing any one of three 3/5 items leaves 6/5: the bin has no witness.
    inst = make_instance(1, {1: F(3, 5), 2: F(3, 5), 3: F(3, 5)}, [[1, 2, 3]], {})
    message = r"^no single removal brings load 9/5 to at most 1$"
    with pytest.raises(PreconditionViolated, match=message):
        feasible_partition(inst, frozenset({1, 2, 3}))


def test_removal_witness_prefers_largest_then_lowest_id():
    # The witness leads the first side. Items 1 and 2 tie as the largest
    # removable items, so 1 leads; removing 3 leaves 6/5.
    inst = make_instance(
        1, {1: F(3, 5), 2: F(3, 5), 3: F(1, 5)}, [[1, 2, 3]], {}
    )
    assert feasible_partition(inst, frozenset({1, 2, 3})) == ({1, 3}, {2})
    # 2 is the largest removable item; with 3 leading the sides would be
    # ({1, 3}, {2}).
    big_first = make_instance(1, {1: F(1, 5), 2: F(4, 5), 3: F(2, 5)}, [[1, 2, 3]], {})
    assert feasible_partition(big_first, frozenset({1, 2, 3})) == ({1, 2}, {3})


def test_feasible_input_unchanged():
    inst = make_instance(
        2, {1: F(1, 2), 2: F(1, 4)}, [[1, 2]], {(1, 0): F(3), (2, 1): F(2)}
    )
    u = Assignment(bins=(frozenset({1}), frozenset({2})))
    fixed, trace = make_feasible_traced(inst, u)
    assert fixed == u
    assert trace == ()


def test_worked_example_moves_big_out():
    inst = worked_example(m=3)
    u = Assignment(bins=(frozenset({1, 2}), frozenset(), frozenset()))
    assert assignment_profit(inst, u) == 16
    fixed, trace = make_feasible_traced(inst, u)
    assert is_feasible(inst, fixed)
    assert assignment_profit(inst, fixed) == 13
    assert fixed.bins == (frozenset({1}), frozenset({2}), frozenset())
    assert [s.kind for s in trace] == [MOVE_BIG_TO_VACANT]


def test_rejects_total_size_above_half_capacity():
    inst = worked_example(m=2)
    u = Assignment(bins=(frozenset({1, 2}), frozenset()))
    message = r"^placed items total size 6/5 > half capacity 1$"
    with pytest.raises(PreconditionViolated, match=message):
        make_feasible_traced(inst, u)


def test_rejects_not_almost_feasible():
    inst = make_instance(
        4, {1: F(3, 5), 2: F(3, 5), 3: F(3, 5)}, [[1, 2, 3]], {}
    )
    u = Assignment(bins=(frozenset({1, 2, 3}), frozenset(), frozenset(), frozenset()))
    with pytest.raises(PreconditionViolated, match=r"^input assignment is not almost feasible$"):
        make_feasible_traced(inst, u)


def test_rejects_malformed_assignment():
    inst = make_instance(2, {1: F(1, 4), 2: F(1, 4)}, [[1, 2]], {})
    # too few bins, a bin the instance does not have, an item placed twice,
    # an item the instance does not have
    for bins in ([{1, 2}], [{1}, set(), {2}], [{1}, {1, 2}], [{9}, set()]):
        u = Assignment(bins=tuple(frozenset(b) for b in bins))
        with pytest.raises(PreconditionViolated, match="needs 2 bins"):
            make_feasible_traced(inst, u)


def test_choose_guards_a_move_that_keeps_less_than_half():
    # Both outcomes empty the bin: the move would keep 0 of a profit of 2.
    inst = make_instance(1, {1: F(1, 4), 2: F(1, 4)}, [[1, 2]], {(1, 0): F(1), (2, 0): F(1)})
    st = _FillState(inst, Assignment(bins=(frozenset({1, 2}),)))
    empty = {0: frozenset()}
    with pytest.raises(InvariantViolated, match=r"^keep-better-half kept 0 of 2: less than half"):
        st.choose(KEEP_BETTER_HALF, [0], empty, empty)


def test_split_across_vacants_fires_when_every_vacant_blocks():
    # two 7/8 bigs; every other bin holds 1/4, too much for either big
    sizes = {1: F(7, 8), 2: F(7, 8)}
    bins = [[1, 2]]
    for k in range(6):
        sizes[3 + k] = F(1, 4)
        bins.append([3 + k])
    profits = {(1, 0): F(9), (2, 0): F(8)}
    for k in range(6):
        profits[(3 + k, 1 + k)] = F(2)
    inst = make_instance(7, sizes, [sorted(sizes)], profits)
    u = Assignment(bins=tuple(frozenset(b) for b in bins))
    before = assignment_profit(inst, u)
    fixed, trace = make_feasible_traced(inst, u)
    assert is_feasible(inst, fixed)
    assert fixed.placed_items() == u.placed_items()
    assert 2 * assignment_profit(inst, fixed) >= before
    splits = [s for s in trace if s.kind == SPLIT_ACROSS_VACANTS]
    assert len(splits) == 1
    over_count, vacant_count = splits[0].counts
    assert vacant_count > 2 * over_count
    doc = io.fill_step_to_dict(splits[0])
    assert doc["kind"] == SPLIT_ACROSS_VACANTS
    assert (doc["overfull_count"], doc["semi_vacant_count"]) == (over_count, vacant_count)


def test_splits_follow_every_one_partner_move():
    # Bin 1 has no big, bin 2 one big, bin 0 two 7/8 bigs that fit none of
    # the eight semi-vacant bins of 3/16. The random draws of the fuzz test
    # never mix a split with another move; this one does.
    sizes = {1: F(7, 8), 2: F(7, 8), 3: F(3, 8), 4: F(3, 8), 5: F(3, 8), 6: F(5, 8), 7: F(1, 2)}
    bins = [[1, 2], [3, 4, 5], [6, 7]]
    for k in range(8):
        sizes[8 + k] = F(3, 16)
        bins.append([8 + k])
    profits = {(i, j): F(1 + i) for j, b in enumerate(bins) for i in b}
    inst = make_instance(11, sizes, [sorted(sizes)], profits)
    fixed, trace = make_feasible_traced(inst, Assignment(bins=tuple(frozenset(b) for b in bins)))
    assert is_feasible(inst, fixed)
    moves = [(s.kind, s.bins) for s in trace if s.kind != REINSERT]
    assert moves == [
        (KEEP_BETTER_HALF, (1,)),
        (SWAP_WITH_VACANT, (2, 3)),
        (SPLIT_ACROSS_VACANTS, (0, 4, 5)),
    ]


def test_next_move_guards_an_overfull_bin_with_one_big_and_no_partner():
    # 3/5 + 1/4 + 1/4: overfull with one big, and no semi-vacant bin to swap with.
    inst = make_instance(1, {1: F(3, 5), 2: F(1, 4), 3: F(1, 4)}, [[1, 2, 3]], {})
    st = _FillState(inst, Assignment(bins=(frozenset({1, 2, 3}),)))
    with pytest.raises(InvariantViolated, match=r"^overfull bin 0 survived with 1 bigs$"):
        _next_move(st)


def test_next_move_guards_the_semi_vacant_surplus():
    # Two bins of two 3/5 bigs; each of the two semi-vacant bins holds 9/20,
    # too much for either big, and two partners are too few for two splits.
    sizes = {1: F(3, 5), 2: F(3, 5), 3: F(3, 5), 4: F(3, 5), 5: F(9, 20), 6: F(9, 20)}
    inst = make_instance(4, sizes, [sorted(sizes)], {})
    bins = ({1, 2}, {3, 4}, {5}, {6})
    st = _FillState(inst, Assignment(bins=tuple(frozenset(b) for b in bins)))
    with pytest.raises(InvariantViolated, match=r"^semi-vacant surplus guard failed: 2 <= 2 \* 2$"):
        _next_move(st)


def test_evict_guards_a_big_item():
    inst = make_instance(1, {1: F(3, 4)}, [[1]], {})
    st = _FillState(inst, Assignment(bins=(frozenset({1}),)))
    with pytest.raises(InvariantViolated, match=r"^big item 1 evicted; only small items may be$"):
        st.evict([1])


def test_set_bin_guards_a_load_above_one():
    inst = make_instance(2, {1: F(3, 5), 2: F(3, 5)}, [[1, 2]], {})
    st = _FillState(inst, Assignment(bins=(frozenset({1}), frozenset({2}))))
    with pytest.raises(InvariantViolated, match=r"^a move left bin 0 at load 6/5 > 1$"):
        st.set_bin(0, {1, 2})


def _reinsert_nothing(monkeypatch):
    monkeypatch.setattr(filling, "_reinsert", lambda _inst, _bins, _loads, _items: [])


def _choose_nothing(monkeypatch):
    # The move's bins count as resolved but keep their items.
    def stand_still(st, _kind, participants, *_outcomes):
        st.resolved.update(participants)

    monkeypatch.setattr(_FillState, "choose", stand_still)


def _choose_second_unchecked(monkeypatch):
    # The second outcome, whatever it keeps, with no check of the move's profit.
    def keep_second(st, _kind, participants, _first, second, _counts=None):
        held = set().union(*second.values())
        st.evict(i for j in second for i in st.bins[j] if i not in held)
        for j, items in second.items():
            st.set_bin(j, items)
        st.resolved.update(participants)

    monkeypatch.setattr(_FillState, "choose", keep_second)


@pytest.mark.parametrize(
    "patch, message",
    [
        (_reinsert_nothing, "changed the set of placed items"),
        (_choose_nothing, "left a bin above load 1"),
        (_choose_second_unchecked, "kept less than half the input profit"),
    ],
    ids=["placed-items", "load-above-one", "half-the-profit"],
)
def test_fill_guards_its_result(monkeypatch, patch, message):
    # Bin 0 holds 2/5 + 7/20 + 7/20 + 3/10 = 7/5 and no big item, so
    # keep-better-half splits it into {1, 2} (3/4), which earns 11 of its
    # 13, and {3, 4}. The evicted side fits bin 1, where nothing earns.
    # Each end-of-pass check follows from the per-move guards, so only a
    # move patched past them reaches it.
    sizes = {1: F(2, 5), 2: F(7, 20), 3: F(7, 20), 4: F(3, 10)}
    profits = {(1, 0): F(10), (2, 0): F(1), (3, 0): F(1), (4, 0): F(1)}
    inst = make_instance(3, sizes, [[1, 2, 3, 4]], profits)
    u = Assignment(bins=(frozenset(sizes), frozenset(), frozenset()))
    fixed, trace = make_feasible_traced(inst, u)
    assert fixed.bins == ({1, 2}, {3, 4}, set())
    assert [step.kind for step in trace] == [KEEP_BETTER_HALF, REINSERT, REINSERT]
    patch(monkeypatch)
    with pytest.raises(InvariantViolated, match=rf"^filling {message}$"):
        make_feasible_traced(inst, u)


def reinserted(inst, u, evicted):
    """``_reinsert`` on a copy of ``u``'s bins, at their loads."""
    bins = [set(b) for b in u.bins]
    _reinsert(inst, bins, [inst._units.load(b) for b in bins], evicted)
    return Assignment(bins=tuple(frozenset(b) for b in bins))


def test_reinsert_noop():
    inst = make_instance(1, {1: F(1, 2)}, [[1]], {})
    u = Assignment(bins=(frozenset({1}),))
    assert reinserted(inst, u, []) == u


def test_reinsert_single_item():
    inst = make_instance(1, {1: F(1, 2)}, [[1]], {(1, 0): F(4)})
    u = Assignment(bins=(frozenset(),))
    out = reinserted(inst, u, [1])
    assert out.bins == (frozenset({1}),)


def test_reinsert_prefers_profit_then_low_index():
    inst = make_instance(
        3, {1: F(1, 4)}, [[1]], {(1, 0): F(1), (1, 2): F(5)}
    )
    u = Assignment(bins=(frozenset(), frozenset(), frozenset()))
    out = reinserted(inst, u, [1])
    assert out.bins[2] == {1}


def test_reinsert_many_random_evictions():
    rng = random.Random(53)
    for _ in range(20):
        m = 4
        n = rng.randint(1, 10)
        sizes = {i: F(rng.randint(1, 3), 16) for i in range(1, n + 1)}
        inst = make_instance(m, sizes, [sorted(sizes)], {})
        assert inst.total_size(sizes) <= F(m, 2)
        u = Assignment(bins=tuple(frozenset() for _ in range(m)))
        out = reinserted(inst, u, sizes)
        assert is_feasible(inst, out)
        assert out.placed_items() == frozenset(sizes)


def test_reinsert_failure_when_nothing_fits():
    inst = make_instance(1, {1: F(1), 2: F(1, 2)}, [[1, 2]], {})
    u = Assignment(bins=(frozenset({1}),))
    with pytest.raises(InvariantViolated, match=r"^no bin has room for evicted item 2$"):
        reinserted(inst, u, [2])


def test_fill_fuzz_guarantees():
    rng = random.Random(59)
    for _ in range(120):
        inst, u = random_almost_feasible(rng)
        before = assignment_profit(inst, u)
        fixed, trace = make_feasible_traced(inst, u)
        assert is_feasible(inst, fixed)
        assert fixed.placed_items() == u.placed_items()
        assert 2 * assignment_profit(inst, fixed) >= before
        for step in trace:
            for i in step.evicted:
                assert inst.size(i) <= F(1, 2)
            if step.kind == SPLIT_ACROSS_VACANTS:
                over_count, vacant_count = step.counts
                assert vacant_count > 2 * over_count
            if step.kind != REINSERT:
                assert 2 * step.profit_after >= step.profit_before
        # Once a split applies, no one-partner move follows.
        moves = [step.kind for step in trace if step.kind != REINSERT]
        if SPLIT_ACROSS_VACANTS in moves:
            first_split = moves.index(SPLIT_ACROSS_VACANTS)
            assert set(moves[first_split:]) == {SPLIT_ACROSS_VACANTS}
        evicted = [i for step in trace if step.kind != REINSERT for i in step.evicted]
        reinserts = [step for step in trace if step.kind == REINSERT]
        assert len(reinserts) == len(evicted)
        for step in reinserts:
            (j,) = step.bins
            assert any(
                i in fixed.bins[j] and inst.profit(i, j) == step.profit_after
                for i in evicted
            )


# Recorded before the four moves were folded into one chooser: the 120 draws
# reach both outcomes of every move, split-across-vacants 55 times, which no
# solve of the benchmark shapes does.
FILL_TRACE_DIGEST = "6d9ebf17795450be4952437d37e26b2208a13d36c10da33b6dab7b22fb725742"


def test_fill_trace_matches_digest():
    rng = random.Random(59)
    lines = []
    for _ in range(120):
        inst, u = random_almost_feasible(rng)
        fixed, trace = make_feasible_traced(inst, u)
        steps = [
            (s.kind, s.bins, s.evicted, str(s.profit_before), str(s.profit_after), s.counts)
            for s in trace
        ]
        lines.append(repr(([sorted(b) for b in fixed.bins], steps)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FILL_TRACE_DIGEST
