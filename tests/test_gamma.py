from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from sunflower.errors import BudgetExceededError
from sunflower.families import SetFamily, Split, labels_mask, mask_labels
from sunflower.gamma import (
    GammaReport,
    check_gamma,
    check_gamma_on_subsplit,
    exact_base,
)

from oracles import max_violator_masks, random_family


def brute_spread_report(family: SetFamily, b: Fraction) -> tuple[bool, Fraction]:
    """Independent double loop: every nonempty subset of every member."""
    total = len(family)
    best = Fraction(0)
    for member in family:
        labels = member.labels()
        for r in range(1, len(labels) + 1):
            for sub in combinations(labels, r):
                s = labels_mask(sub)
                count = sum(1 for u in family.masks() if u & s == s)
                best = max(best, Fraction(count) * b ** r / total)
    return best < 1, best


def test_exact_base_accepts_rationals_and_floats():
    assert exact_base(2) == Fraction(2)
    assert exact_base(1.5) == Fraction(3, 2)
    assert exact_base(Fraction(7, 5)) == Fraction(7, 5)
    with pytest.raises(ValueError):
        exact_base(1)
    with pytest.raises(ValueError):
        exact_base(0.3)


def test_check_gamma_all_pairs_threshold():
    fam = SetFamily.of(4, [c for c in combinations(range(4), 2)])
    # each singleton sits in 3 of the 6 pairs: ratio 3*b/6 hits 1 at b=2
    failing = check_gamma(fam, 2)
    assert failing.holds is False
    assert failing.witness.labels() == (0,)
    assert failing.ratio == Fraction(1)
    passing = check_gamma(fam, Fraction(19, 10))
    assert passing.holds is True
    assert passing.witness is None
    assert passing.ratio == Fraction(19, 20)


def test_check_gamma_single_member_witness_is_the_member():
    fam = SetFamily.of(6, [[0, 1, 2]])
    report = check_gamma(fam, 1.5)
    assert report.holds is False
    assert report.witness.labels() == (0, 1, 2)
    assert report.ratio == Fraction(27, 8)


def test_check_gamma_requires_nonempty_family():
    with pytest.raises(ValueError):
        check_gamma(SetFamily.of(4, []), 2)


def test_check_gamma_shadow_budget_carries_need():
    fam = random_family(8, 3, 10, seed=5)
    need = 10 * 2 ** 3
    with pytest.raises(BudgetExceededError) as info:
        check_gamma(fam, 2, budget=need - 1)
    assert (info.value.needed, info.value.budget) == (need, need - 1)
    assert check_gamma(fam, 2, budget=need) == check_gamma(fam, 2)
    # check_gamma keeps no counts: a second check counts again and
    # refuses the same
    with pytest.raises(BudgetExceededError) as info:
        check_gamma(fam, 2, budget=need - 1)
    assert (info.value.needed, info.value.budget) == (need, need - 1)


def test_check_gamma_matches_brute_oracle():
    grid = [Fraction(6, 5), Fraction(3, 2), Fraction(2), Fraction(3)]
    for seed in range(40):
        n = 5 + seed % 4
        m = 2 + seed % 2
        size = 4 + seed % 7
        fam = random_family(n, m, size, seed=seed)
        for b in grid:
            want_holds, want_ratio = brute_spread_report(fam, b)
            got = check_gamma(fam, b)
            assert got.holds == want_holds
            assert got.ratio == want_ratio
            if not got.holds:
                count = len(fam.restrict(got.witness))
                assert (Fraction(count) * b ** got.witness.cardinality
                        / len(fam) == want_ratio)


def test_check_gamma_monotone_in_b():
    grid = [Fraction(11, 10), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5)]
    for seed in range(20):
        fam = random_family(8, 2, 10, seed=100 + seed)
        reports = [check_gamma(fam, b) for b in grid]
        ratios = [r.ratio for r in reports]
        assert ratios == sorted(ratios)
        # once the check fails it stays failed for larger b
        held = [r.holds for r in reports]
        assert held == sorted(held, reverse=True)


def test_gamma_report_json_shape():
    report = GammaReport(False, SetFamily.of(4, [[0, 1]]).members[0],
                         Fraction(4, 3))
    assert report.to_json_obj() == {
        "holds": False,
        "witness": [0, 1],
        "ratio": [4, 3],
    }
    assert GammaReport(True, None, Fraction(1, 2)).to_json_obj()["witness"] is None


SUBSPLIT_FAMILY = SetFamily.of(8, [[0, 4], [0, 5], [1, 4]])


def test_check_gamma_on_subsplit_small_case():
    sub = Split.contiguous(8, 2).full_subsplit()
    failing = check_gamma_on_subsplit(SUBSPLIT_FAMILY, sub, SUBSPLIT_FAMILY, 2)
    assert failing.holds is False
    assert failing.witness.labels() == (0,)
    assert failing.ratio == Fraction(4, 3)
    passing = check_gamma_on_subsplit(SUBSPLIT_FAMILY, sub, SUBSPLIT_FAMILY,
                                      Fraction(7, 5))
    assert passing.holds is True
    assert passing.ratio == Fraction(14, 15)


def test_check_gamma_on_subsplit_range_filter():
    # confining the candidate range changes the reported witness
    sub = Split.contiguous(8, 2).full_subsplit()
    over = SetFamily.of(8, [[1, 4]])
    report = check_gamma_on_subsplit(SUBSPLIT_FAMILY, sub, over, 2)
    assert report.holds is False
    assert report.witness.labels() == (1, 4)
    assert report.ratio == Fraction(4, 3)


def test_check_gamma_on_subsplit_rank_zero_or_empty_over_is_vacuous():
    sp = Split.contiguous(8, 2)
    empty_sub = sp.subsplit([])
    report = check_gamma_on_subsplit(SUBSPLIT_FAMILY, empty_sub,
                                     SUBSPLIT_FAMILY, 2)
    assert report.holds is True
    assert report.ratio == Fraction(0)
    no_over = check_gamma_on_subsplit(SUBSPLIT_FAMILY, sp.full_subsplit(),
                                      SetFamily.of(8, []), 2)
    assert no_over.holds is True


def test_check_gamma_on_subsplit_requires_nonempty_family():
    sub = Split.contiguous(8, 2).full_subsplit()
    with pytest.raises(ValueError):
        check_gamma_on_subsplit(SetFamily.of(8, []), sub, SUBSPLIT_FAMILY, 2)


VIOLATOR_FAMILY = SetFamily.of(
    8, [[0, 4], [0, 5], [0, 7], [1, 4], [1, 5], [2, 6]])


def max_violator(family: SetFamily, sub, b):
    """The engine's maximal-violator kernel on ``family`` over itself; the
    labels of the result, or None."""
    got = max_violator_masks(family.masks(), sub, family, b)
    return None if got is None else mask_labels(got)


def test_maximal_violator_from_empty_seed():
    sub = Split.contiguous(8, 2).full_subsplit()
    got = max_violator(VIOLATOR_FAMILY, sub, 2)
    # pairs reach 1*2^2 = 4 < 6, so the search settles at the singleton level
    assert got == (0,)
    assert max_violator(VIOLATOR_FAMILY, sub, Fraction(6, 5)) is None


def test_maximal_violator_result_properties():
    # a returned set keeps the weighted count of the whole family and
    # admits no one-element in-range extension that keeps it
    sub = Split.contiguous(8, 2).full_subsplit()
    b = Fraction(2)
    for seed_idx in range(12):
        fam = random_family(8, 2, 8, seed=200 + seed_idx)
        masks = fam.masks()

        def weight(s: int) -> Fraction:
            return sum(1 for u in masks if u & s == s) * b ** s.bit_count()

        got = max_violator_masks(masks, sub, fam, b)
        if got is None:
            continue
        floor = weight(0)
        assert weight(got) >= floor
        free = sub.minus(got)
        for strip in free.strip_masks:
            for label in mask_labels(strip):
                ext = got | 1 << label
                if not any(u & ext == ext for u in masks):
                    continue
                assert weight(ext) < floor
