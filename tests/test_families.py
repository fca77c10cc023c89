from __future__ import annotations

import json
from itertools import combinations, product

import pytest

from sunflower.errors import BudgetExceededError
from sunflower.families import (
    GroundSet,
    SetFamily,
    Split,
    Universe,
    _in_shadow,
    _kept_columns,
    family_from_json_obj,
    family_from_text,
    labels_mask,
    mask_labels,
    pad_universe,
)
from sunflower.gamma import check_gamma

from oracles import p_set_masks, random_family, subset_map


def test_mask_labels_roundtrip():
    assert mask_labels(0) == ()
    assert mask_labels(0b1011) == (0, 1, 3)
    assert labels_mask([0, 1, 3]) == 0b1011
    assert labels_mask([]) == 0
    for mask in range(64):
        assert labels_mask(mask_labels(mask)) == mask


def test_mask_labels_rejects_negative_masks():
    for mask in (-1, -(1 << 40)):
        with pytest.raises(ValueError):
            mask_labels(mask)


def test_universe_basics():
    uni = Universe(5)
    assert uni.full_mask == 0b11111
    assert GroundSet(uni, labels_mask([0, 4])).bits == 0b10001
    assert GroundSet(uni, 0b10001).labels() == (0, 4)
    assert GroundSet(uni, 0).bits == 0
    with pytest.raises(ValueError):
        Universe(0)
    with pytest.raises(ValueError):
        GroundSet(uni, labels_mask([5]))
    with pytest.raises(ValueError):
        GroundSet(uni, labels_mask([-1]))


def test_ground_set_operations():
    uni = Universe(6)
    a = GroundSet(uni, labels_mask([0, 2, 4]))
    b = GroundSet(uni, labels_mask([2, 3]))
    assert a.cardinality == 3
    assert a.bits >> 2 & 1 and not a.bits >> 1 & 1
    assert mask_labels(a.bits | b.bits) == (0, 2, 3, 4)
    assert mask_labels(a.bits & b.bits) == (2,)
    assert mask_labels(a.bits & ~b.bits) == (0, 4)
    assert GroundSet(uni, labels_mask([2])).bits & ~a.bits == 0
    assert b.bits & ~a.bits
    assert a.bits & GroundSet(uni, labels_mask([1, 5])).bits == 0
    assert a.bits & b.bits
    assert a == GroundSet(uni, 0b10101) and hash(a) == hash(GroundSet(uni, 21))
    assert a != GroundSet(Universe(7), a.bits)
    assert repr(a) == "{0,2,4}"


def test_ground_set_ordering_is_by_label_tuple():
    uni = Universe(4)
    sets = [GroundSet(uni, labels_mask(c))
            for r in range(3) for c in combinations(range(4), r)]
    ordered = sorted(sets)
    assert [s.labels() for s in ordered] == sorted(s.labels() for s in sets)


def test_family_canonical_order():
    fam = SetFamily.of(5, [[2, 3], [0, 4], [1], [0, 1]])
    assert [s.labels() for s in fam] == [(0, 1), (0, 4), (1,), (2, 3)]
    # order is independent of construction order
    again = SetFamily.of(5, [[0, 1], [1], [0, 4], [2, 3]])
    assert fam == again
    assert fam.masks() == again.masks()


def test_family_rejects_duplicates_and_oversized_members():
    with pytest.raises(ValueError):
        SetFamily.of(4, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        SetFamily.of(4, [[0, 1, 2]], m=2)


def test_negative_maxcard_is_rejected_on_every_route():
    # with no member to exceed it, a negative bound needs its own check
    message = "cardinality bound must be nonnegative, got"
    with pytest.raises(ValueError, match=message + " -1"):
        family_from_text("universe 5 maxcard -1\n")
    with pytest.raises(ValueError, match=message + " -3"):
        family_from_json_obj({"n": 4, "m": -3, "sets": []})
    with pytest.raises(ValueError, match=message + " -1"):
        SetFamily(Universe(5), [], m=-1)


def test_family_declared_maxcard_defaults_to_actual():
    fam = SetFamily.of(6, [[0], [1, 2]])
    assert fam.m == 2
    wide = SetFamily.of(6, [[0], [1, 2]], m=4)
    assert wide.m == 4
    assert fam != wide  # the bound is part of the identity


def test_family_membership_and_difference():
    fam = SetFamily.of(4, [[0, 1], [2, 3], [0, 3]])
    assert labels_mask([0, 1]) in fam.masks()
    assert labels_mask([1, 2]) not in fam.masks()
    rest = fam.difference(SetFamily.of(4, [[0, 3]]))
    assert [s.labels() for s in rest] == [(0, 1), (2, 3)]


def test_restrict_matches_definition():
    fam = random_family(8, 3, 20, seed=11)
    uni = fam.universe
    for probe in [[0], [0, 1], [3, 5], []]:
        s = GroundSet(uni, labels_mask(probe))
        got = fam.restrict(s)
        want = [u for u in fam if u.bits & s.bits == s.bits]
        assert list(got) == sorted(want)
        assert got.m == fam.m


def test_empty_family():
    fam = SetFamily.of(4, [])
    assert len(fam) == 0
    assert fam.m == 0
    assert list(fam.shadow()) == []
    bounded = SetFamily.of(4, [], m=2)
    assert bounded.m == 2


def test_shadow_small_family_exact():
    fam = SetFamily.of(5, [[0, 1], [1, 2, 3]])
    shd = fam.shadow()
    want = set()
    for member in [[0, 1], [1, 2, 3]]:
        for r in range(len(member) + 1):
            want.update(combinations(member, r))
    assert {s.labels() for s in shd} == want
    assert GroundSet(fam.universe, 0) in shd


def test_shadow_agrees_with_lazy_membership():
    fam = random_family(9, 3, 15, seed=3)
    shd = fam.shadow()
    uni = fam.universe
    for mask in range(1 << 9):
        t = GroundSet(uni, mask)
        assert (t in shd) == fam.shadow_contains(t)


def test_shadow_budget_enforced():
    fam = SetFamily.of(20, [list(range(20))])
    with pytest.raises(BudgetExceededError) as info:
        fam.shadow(budget=100)
    assert info.value.needed == 1 << 20
    assert info.value.budget == 100
    # lazy membership still works above the budget
    assert fam.shadow_contains(GroundSet(fam.universe, labels_mask([4, 17])))


def test_subset_lookup_order():
    masks = SetFamily.of(5, [[0, 1], [1, 2, 3], [4]]).masks()
    buckets = subset_map(masks)
    assert sum(len(bucket) for bucket in buckets.values()) == 14
    assert buckets[0] == list(masks)
    assert buckets[0b10] == [0b11, 0b1110]
    assert subset_map(()) == {}


def test_check_gamma_budget_before_and_after_the_lookup_is_built():
    # 14 = 4 + 8 + 2 subsets: over budget 13 whether or not the family
    # keeps the member columns its shadow queries read, and check_gamma
    # neither builds nor reads them
    fam = SetFamily.of(5, [[0, 1], [1, 2, 3], [4]])
    for built in (False, True):
        with pytest.raises(BudgetExceededError) as info:
            check_gamma(fam, 2, budget=13)
        assert (info.value.needed, info.value.budget) == (14, 13)
        assert (fam._cols is not None) == built
        assert check_gamma(fam, 2, budget=14) == check_gamma(fam, 2)
        _kept_columns(fam)


def test_in_shadow_answers_above_the_default_budget():
    # 2^23 subsets exceed the default budget, and the member columns
    # answer every query with no budget, as the member scan does; the
    # family keeps the columns its first query built
    fam = SetFamily.of(24, [list(range(23)), [0, 23]])
    assert fam._cols is None
    uni, kept = fam.universe, []
    for labels, want in (([], True), ([4, 17], True), ([0, 23], True),
                         ([22, 23], False), (range(24), False)):
        s = GroundSet(uni, labels_mask(labels))
        assert _in_shadow(fam, s.bits) == fam.shadow_contains(s) == want
        kept.append(fam._cols)
    assert kept[0] is not None
    assert all(cols is kept[0] for cols in [*kept, _kept_columns(fam)])
    small = random_family(9, 3, 15, seed=3)
    shadow = subset_map(small.masks())
    assert [_in_shadow(small, s) for s in range(1 << 9)] == \
        [s in shadow for s in range(1 << 9)]


def test_split_contiguous_and_explicit():
    sp = Split.contiguous(6, 2)
    assert sp.strip_labels() == [[0, 1, 2], [3, 4, 5]]
    assert sp.m == 2
    assert sp.strip_size == 3
    same = Split.of(6, [[0, 1, 2], [3, 4, 5]])
    assert same == sp


def test_split_validation():
    with pytest.raises(ValueError):
        Split.contiguous(7, 2)  # strip size must divide n
    with pytest.raises(ValueError):
        Split.of(4, [[0, 1], [1, 2]])  # overlap
    with pytest.raises(ValueError):
        Split.of(4, [[0, 1], [2]])  # unequal strips
    with pytest.raises(ValueError):
        Split.of(4, [[0], [1], [2]])  # does not cover
    uni = Universe(4)
    with pytest.raises(ValueError):
        Split(uni, (-4, 0b0011))  # negative strip mask
    with pytest.raises(ValueError):
        Split(uni, (0b10011, 0b1100))  # bit beyond the universe width
    with pytest.raises(ValueError):
        Split.of(4, [[0, 4], [1, 2]])  # label out of range
    assert Split(uni, (0b0011, 0b1100)) == Split.contiguous(4, 2)


def test_subsplit_selection():
    sp = Split.contiguous(9, 3)
    sub = sp.subsplit([0, 2])
    assert sub.rank == 2
    assert [mask_labels(s) for s in sub.strip_masks] == [(0, 1, 2), (6, 7, 8)]
    assert mask_labels(sub.union_mask) == (0, 1, 2, 6, 7, 8)
    with pytest.raises(ValueError):
        sp.subsplit([2, 0])  # order-preserving selection only
    with pytest.raises(ValueError):
        sp.subsplit([0, 0])


def test_carries_is_the_on_subsplit_test():
    sp = Split.contiguous(6, 2)
    full = sp.full_subsplit()
    assert full.carries_mask(labels_mask([0, 3]))
    assert full.carries_mask(labels_mask([2])) is True
    assert full.carries_mask(0) is True
    assert not full.carries_mask(labels_mask([0, 1]))  # two in one strip
    sub = sp.subsplit([1])
    assert sub.carries_mask(labels_mask([4]))
    assert not sub.carries_mask(labels_mask([0]))  # outside the union


def test_carries_brute_oracle():
    sp = Split.contiguous(8, 2)
    sub = sp.subsplit([0, 1])
    strips = [set(mask_labels(s)) for s in sub.strip_masks]
    union = set().union(*strips)
    for mask in range(1 << 8):
        labels = set(mask_labels(mask))
        want = labels <= union and all(len(labels & st) <= 1 for st in strips)
        assert sub.carries_mask(mask) == want


def test_subsplit_minus_drops_touched_strips():
    sp = Split.contiguous(9, 3)
    sub = sp.full_subsplit()
    reduced = sub.minus(labels_mask([4]))
    assert reduced.indices == (0, 2)
    # removing a set outside every strip keeps the rank
    same = sp.subsplit([0, 1]).minus(labels_mask([7]))
    assert same.indices == (0, 1)


def test_p_sets_enumeration():
    sp = Split.contiguous(6, 3)
    sub = sp.full_subsplit()
    for p in range(4):
        masks = list(p_set_masks(sub, p))
        # choose p strips, then one label from each
        assert len(masks) == len(list(combinations(range(3), p))) * 2 ** p
        assert len(set(masks)) == len(masks)
        for mask in masks:
            assert sub.carries_mask(mask)
            assert bin(mask).count("1") == p
    assert list(p_set_masks(sub, 0)) == [0]
    assert list(p_set_masks(sub, 4)) == []


def test_p_sets_order_is_strip_selections_then_label_tuples():
    # strip selections in combinations order, and within one the product
    # of the strips' labels, last strip fastest: pinned on an interleaved
    # split, where this order is not label order
    sp = Split.of(9, [[0, 4, 8], [1, 5, 6], [2, 3, 7]])
    sub = sp.subsplit([0, 2])
    strips = [sorted(mask_labels(s)) for s in sub.strip_masks]
    for p in range(3):
        want = [labels_mask(choice)
                for which in combinations(range(2), p)
                for choice in product(*(strips[i] for i in which))]
        assert list(p_set_masks(sub, p)) == want


def test_on_subsplit_filters_by_cardinality_and_carriage():
    sp = Split.contiguous(4, 2)
    fam = SetFamily.of(4, [[0, 2], [0, 1], [3], [0, 3], []])
    full = sp.full_subsplit()
    assert [s.labels() for s in fam.on_subsplit(full, 2)] == [(0, 2), (0, 3)]
    assert [s.labels() for s in fam.on_subsplit(full, 1)] == [(3,)]
    assert [s.labels() for s in fam.on_subsplit(full, 0)] == [()]


def test_pad_universe_keeps_members():
    fam = SetFamily.of(4, [[0, 1], [2, 3]])
    wide = pad_universe(fam, 7)
    assert wide.universe.n == 7
    assert [s.labels() for s in wide] == [(0, 1), (2, 3)]
    assert wide.m == fam.m
    with pytest.raises(ValueError):
        pad_universe(fam, 3)


def test_text_roundtrip():
    fam = SetFamily.of(6, [[0, 5], [], [2, 3]], m=3)
    text = fam.to_text()
    lines = text.strip().splitlines()
    assert lines[0] == "universe 6 maxcard 3"
    assert "-" in lines  # empty member marker
    assert family_from_text(text) == fam


def test_text_accepts_comments_and_blank_lines():
    text = """# generated by hand
universe 5 maxcard 2

0 1
# middle note
-
2 4
"""
    fam = family_from_text(text)
    assert [s.labels() for s in fam] == [(), (0, 1), (2, 4)]
    assert fam.m == 2


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        family_from_text("no header\n0 1\n")
    with pytest.raises(ValueError):
        family_from_text("universe 4 maxcard 2\n0 9\n")
    with pytest.raises(ValueError):
        family_from_text("universe 4 maxcard 1\n0 1\n")


def test_json_roundtrip():
    fam = SetFamily.of(6, [[0, 5], [], [2, 3]], m=3)
    obj = fam.to_json_obj()
    assert obj == {"n": 6, "m": 3, "sets": [[], [0, 5], [2, 3]]}
    assert family_from_json_obj(json.loads(json.dumps(obj))) == fam


def test_json_rejects_wrong_types():
    for bad in [{"n": "5", "m": 2, "sets": []},
                {"n": 5, "m": None, "sets": []},
                {"n": True, "m": 2, "sets": []},
                {"n": 5, "m": 2, "sets": 7},
                {"n": 5, "m": 2, "sets": [7]},
                {"n": 5, "m": 2, "sets": [[0.5, 1]]},
                {"n": 5, "m": 2, "sets": [["a", 1]]},
                {"n": 5, "m": 2, "sets": [[True, 1]]}]:
        with pytest.raises(ValueError, match="bad family object"):
            family_from_json_obj(bad)


def test_serialization_roundtrip_random_families():
    for seed in range(8):
        fam = random_family(9, 3, 12, seed=seed)
        assert family_from_text(fam.to_text()) == fam
        assert family_from_json_obj(fam.to_json_obj()) == fam


def test_family_immutable():
    fam = SetFamily.of(4, [[0, 1]])
    with pytest.raises(AttributeError):
        fam.m = 5
    s = GroundSet(fam.universe, labels_mask([0]))
    with pytest.raises(AttributeError):
        s.bits = 3
