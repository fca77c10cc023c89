from __future__ import annotations

import gc
from fractions import Fraction
from itertools import combinations

import pytest

from sunflower import splits
from sunflower.errors import (BudgetExceededError, ContractViolationError,
                              TrialsExhaustedError)
from sunflower.families import SetFamily, Split, Universe
from sunflower.rng import CounterRng
from sunflower.splits import (
    count_splits,
    enumerate_splits,
    find_good_split,
    retention_bound,
    transversal_count_brute,
    transversal_formula,
)


def random_family(n: int, m: int, size: int, seed: int) -> SetFamily:
    rng = CounterRng(seed)
    combos = list(combinations(range(n), m))
    picks = rng.sample(range(len(combos)), size)
    return SetFamily.of(n, [combos[i] for i in picks], m=m)


def all_m_subsets(n: int, m: int) -> SetFamily:
    return SetFamily.of(n, combinations(range(n), m), m=m)


def test_count_splits_small_values():
    assert count_splits(4, 2) == 3
    assert count_splits(6, 2) == 10
    assert count_splits(6, 3) == 15
    assert count_splits(9, 3) == 280
    assert count_splits(5, 1) == 1
    assert count_splits(4, 4) == 1
    with pytest.raises(ValueError):
        count_splits(7, 2)


def test_strip_count_errors_name_the_failed_condition():
    # one check serves every entry point: m below 1 is not a divisibility
    # failure, and each message names what m stands for
    for check in (lambda m: count_splits(4, m),
                  lambda m: list(enumerate_splits(Universe(4), m)),
                  lambda m: retention_bound(all_m_subsets(4, 2), m),
                  lambda m: Split.contiguous(4, m)):
        with pytest.raises(ValueError,
                           match="^strip count 0 must be at least 1$"):
            check(0)
        with pytest.raises(ValueError, match="^strip count 3 must divide "
                                             "universe size 4$"):
            check(3)
    for check in (find_good_split, lambda f: transversal_formula(f, 0)):
        with pytest.raises(ValueError, match="^member cardinality 0 must be "
                                             "at least 1$"):
            check(SetFamily.of(4, [[]]))
        with pytest.raises(ValueError, match="^member cardinality 2 must "
                                             "divide universe size 5$"):
            check(SetFamily.of(5, [[0, 1]]))
    with pytest.raises(ValueError, match="^member cardinality 2 must divide "
                                         "universe size 5$"):
        transversal_count_brute(SetFamily.of(5, [[0, 1]]), 1)


def test_enumerate_splits_is_exhaustive_and_canonical():
    for n, m in [(4, 2), (6, 2), (6, 3), (8, 2)]:
        splits = list(enumerate_splits(Universe(n), m))
        assert len(splits) == count_splits(n, m)
        assert len(set(splits)) == len(splits)
        for sp in splits:
            labels = sp.strip_labels()
            assert sorted(x for block in labels for x in block) == list(range(n))
            # strips are ordered by their minimum element
            assert [block[0] for block in labels] == sorted(
                block[0] for block in labels)
        # the contiguous split always appears first
        assert splits[0] == Split.contiguous(n, m)


@pytest.mark.parametrize("n, m", [(9, 3), (12, 4), (8, 2), (6, 1)])
def test_enumerated_splits_are_splits_like_any_other(n, m):
    # each split is filled slot by slot, past __init__ and __setattr__; it
    # still equals and hashes like the validated split of its strips and
    # refuses assignment, and every split comes out once
    uni = Universe(n)
    total = 0
    for sp in enumerate_splits(uni, m):
        checked = Split(sp.universe, sp.strips)
        assert type(sp) is Split
        assert sp == checked and hash(sp) == hash(checked)
        with pytest.raises(AttributeError):
            sp.strips = checked.strips
        with pytest.raises(AttributeError):
            sp.universe = uni
        total += 1
    assert total == count_splits(n, m)


def test_enumerate_splits_draws_each_strip_lazily(monkeypatch):
    drawn = []

    def counted(labels, r):
        for extra in combinations(labels, r):
            drawn.append(extra)
            yield extra

    monkeypatch.setattr(splits, "combinations", counted)
    first = next(enumerate_splits(Universe(24), 3))
    assert first == Split.contiguous(24, 3)
    # one block per open strip, not the C(23, 7) = 245,157 first strips
    assert len(drawn) == 2


def test_enumerate_splits_lists_no_label_for_one_label_strips(monkeypatch):
    handed = []

    def counted(labels, r):
        handed.append(len(labels))
        return combinations(labels, r)

    monkeypatch.setattr(splits, "combinations", counted)
    (only,) = enumerate_splits(Universe(300), 300)
    assert only.strips == tuple(1 << x for x in range(300))
    # a one-label strip is its anchor: no free label is listed, where
    # listing them at every strip would hand over 299 + 298 + ... labels
    assert sum(handed) == 0


def test_on_full_subsplit_matches_oracle():
    # the members a split retains: those on its full subsplit
    fam = random_family(6, 2, 10, seed=4)
    for sp in enumerate_splits(fam.universe, 2):
        got = fam.on_subsplit(sp.full_subsplit(), sp.m)
        strips = [set(s) for s in sp.strip_labels()]
        want = [u for u in fam
                if all(len(set(u.labels()) & st) == 1 for st in strips)]
        assert list(got) == sorted(want)


def test_retention_bound_values():
    assert retention_bound(all_m_subsets(4, 2), 2) == Fraction(4)
    assert retention_bound(all_m_subsets(6, 2), 2) == Fraction(9)
    fam = SetFamily.of(6, [[0, 1], [2, 4], [3, 5]])
    assert retention_bound(fam, 2) == Fraction(9 * 3, 15)


def test_averaging_identity():
    # the bound is exactly the average of retained counts over all splits
    for seed in range(6):
        fam = random_family(6, 2, 8, seed=seed)
        counts = [len(fam.on_subsplit(sp.full_subsplit(), 2))
                  for sp in enumerate_splits(fam.universe, 2)]
        assert Fraction(sum(counts), len(counts)) == retention_bound(fam, 2)


def test_find_good_split_exhaustive_uniform_case():
    fam = all_m_subsets(4, 2)
    result = find_good_split(fam)
    # every split of a 4-universe kills exactly the 2 within-strip pairs
    assert len(result.retained) == 4
    assert result.bound == Fraction(4)
    assert len(result.retained) >= result.bound


def test_find_good_split_exhaustive_maximizes():
    for seed in range(6):
        fam = random_family(6, 2, 9, seed=10 + seed)
        result = find_good_split(fam)
        best = max(len(fam.on_subsplit(sp.full_subsplit(), 2))
                   for sp in enumerate_splits(fam.universe, 2))
        assert len(result.retained) == best
        assert best >= result.bound


def test_find_good_split_exhaustive_budget():
    fam = all_m_subsets(4, 2)
    with pytest.raises(BudgetExceededError):
        find_good_split(fam, enum_budget=2)


def test_find_good_split_postcondition_raises(monkeypatch):
    # a best split below the averaging floor is a contract violation that
    # must be raised, not asserted (asserts vanish under python -O)
    monkeypatch.setattr(SetFamily, "on_subsplit", lambda family, sub, p:
                        SetFamily(family.universe, [], m=family.m))
    with pytest.raises(ContractViolationError):
        find_good_split(all_m_subsets(4, 2))


def test_find_good_split_cross_checks_the_kernel_count(monkeypatch):
    # a materialized split whose size differs from the kernel's count is a
    # contract violation even when it clears the floor
    fam = SetFamily.of(4, [[0, 1]])
    monkeypatch.setattr(SetFamily, "on_subsplit",
                        lambda family, sub, p: family)
    with pytest.raises(ContractViolationError, match="kernel counted"):
        find_good_split(all_m_subsets(4, 2))  # 6 materialized, 4 counted
    with pytest.raises(ContractViolationError, match="kernel counted"):
        # the best split of an exhausted search is checked too (0 counted)
        find_good_split(fam, mode="random", trials=1, seed=0)
    monkeypatch.setattr(SetFamily, "on_subsplit", lambda family, sub, p:
                        SetFamily(family.universe, [], m=family.m))
    with pytest.raises(ContractViolationError, match="kernel counted"):
        find_good_split(fam, mode="random", trials=1, seed=1)  # 1 counted


def test_find_good_split_random_mode():
    fam = SetFamily.of(4, [[0, 1]])
    result = find_good_split(fam, mode="random", trials=1, seed=1)
    assert result.split.strip_labels() == [[0, 3], [1, 2]]
    assert len(result.retained) == 1
    with pytest.raises(TrialsExhaustedError) as info:
        find_good_split(fam, mode="random", trials=1, seed=0)
    assert len(info.value.best.retained) == 0
    # with enough trials the sampler finds a qualifying split
    recovered = find_good_split(fam, mode="random", trials=50, seed=0)
    assert len(recovered.retained) >= recovered.bound
    # a search of no trials is an input error, not an exhausted search
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            find_good_split(fam, mode="random", trials=trials, seed=1)


def test_find_good_split_random_is_deterministic():
    fam = random_family(6, 2, 9, seed=3)
    a = find_good_split(fam, mode="random", trials=20, seed=9)
    b = find_good_split(fam, mode="random", trials=20, seed=9)
    assert a.split == b.split
    assert a.retained == b.retained


def test_find_good_split_input_validation():
    with pytest.raises(ValueError):
        find_good_split(SetFamily.of(4, []))
    with pytest.raises(ValueError):
        find_good_split(SetFamily.of(4, [[0], [1, 2]]))
    with pytest.raises(ValueError):
        find_good_split(SetFamily.of(5, [[0, 1]]))  # 2 does not divide 5
    with pytest.raises(ValueError):
        find_good_split(SetFamily.of(4, [[]]))
    with pytest.raises(ValueError):
        find_good_split(all_m_subsets(4, 2), mode="simulated-annealing")


def test_transversal_worked_case():
    fam = all_m_subsets(4, 2)
    assert transversal_count_brute(fam, 1) == 24
    assert transversal_formula(fam, 1) == Fraction(24)


def test_transversal_identity_random_families():
    for seed in range(15):
        n, m = [(4, 2), (6, 2), (6, 3), (8, 2)][seed % 4]
        size = 2 + seed % 5
        fam = random_family(n, m, size, seed=40 + seed)
        for j in range(m + 1):
            assert transversal_count_brute(fam, j) == transversal_formula(fam, j)


def test_transversal_count_leaves_no_reference_cycle():
    # the walk takes the block table as an argument, so no function and
    # closure outlive a call in a cycle holding it: the cyclic collector
    # finds nothing to free after the counts
    fam = random_family(9, 3, 30, seed=7)
    gc.collect()
    gc.disable()
    try:
        assert [transversal_count_brute(fam, j) for j in range(4)] == \
            [transversal_formula(fam, j) for j in range(4)]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_transversal_full_family_values():
    fam = all_m_subsets(6, 2)
    assert transversal_count_brute(fam, 1) == 180
    assert transversal_formula(fam, 1) == Fraction(180)
    # j = 0 tuples are empty, every member qualifies
    assert transversal_count_brute(fam, 0) == 15
    assert transversal_formula(fam, 0) == Fraction(15)


def test_transversal_edge_cases():
    empty = SetFamily.of(6, [], m=2)
    assert transversal_count_brute(empty, 0) == 0
    assert transversal_count_brute(empty, 2) == 0
    with pytest.raises(ValueError):
        transversal_count_brute(empty, 3)
    with pytest.raises(ValueError):
        transversal_formula(empty, 0)  # closed form needs a nonempty family
    trivial = SetFamily.of(4, [[]])
    assert transversal_count_brute(trivial, 0) == 1
    with pytest.raises(ValueError):
        transversal_count_brute(trivial, 1)
    with pytest.raises(ValueError):
        transversal_formula(trivial, 0)
    fam = all_m_subsets(4, 2)
    with pytest.raises(ValueError):
        transversal_count_brute(fam, 3)
    with pytest.raises(ValueError):
        transversal_formula(fam, -1)
    narrow = SetFamily.of(2, [[0, 1]])
    with pytest.raises(ValueError):
        transversal_formula(narrow, 1)  # strip size 1 not covered


def test_transversal_budget():
    # the budget counts ordered tuples, C(8,4) * C(4,4) = 70 at j = 2,
    # not the 35 sets of two disjoint blocks the walk visits
    fam = all_m_subsets(8, 2)
    with pytest.raises(BudgetExceededError) as info:
        transversal_count_brute(fam, 2, budget=10)
    assert (info.value.needed, info.value.budget) == (70, 10)
