from __future__ import annotations

from itertools import combinations

import pytest

from sunflower.errors import BudgetExceededError
from sunflower.extremal import build_extremal
from sunflower.families import SetFamily, Split, labels_mask, pad_universe
from sunflower.sunflowers import find_sunflower_exact


def test_build_extremal_small_values():
    family = build_extremal(3, 2)
    assert family.universe.n == 4
    assert [s.labels() for s in family] == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert build_extremal(2, 3).masks() == (0b111,)
    assert [s.labels() for s in build_extremal(4, 1)] == [(0,), (1,), (2,)]


def test_build_extremal_sizes():
    for k in range(2, 6):
        for m in range(1, 5):
            if (k - 1) ** m > 256:
                continue
            family = build_extremal(k, m)
            assert len(family) == (k - 1) ** m
            assert family.universe.n == (k - 1) * m
            for member in family:
                assert member.cardinality == m


def test_extremal_lies_on_its_natural_split():
    for k, m in [(3, 2), (4, 2), (3, 3), (5, 2)]:
        # generations as strips: m contiguous strips of size k-1
        family = build_extremal(k, m)
        split = Split.contiguous((k - 1) * m, m)
        assert family.on_subsplit(split.full_subsplit(), split.m) == family


def test_extremal_is_sunflower_free():
    for k, m in [(2, 1), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)]:
        assert find_sunflower_exact(build_extremal(k, m), k) is None


def test_extremal_is_maximal_for_small_cases():
    # adding any further m-set creates a k-sunflower, on the construction's
    # own (k-1)*m labels and also when padded to k*m labels: an added set
    # misses some strip, so k-1 members sharing one of its labels in each
    # strip it meets and pairwise different in the rest close a sunflower
    for k, m in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (2, 3)]:
        product = build_extremal(k, m)
        for family in (product, pad_universe(product, k * m)):
            for extra in combinations(range(family.universe.n), m):
                candidate = labels_mask(extra)
                if candidate in family.masks():
                    continue
                grown = SetFamily(family.universe,
                                  family.masks() + (candidate,), m=m)
                assert find_sunflower_exact(grown, k) is not None


def test_build_extremal_validation_and_budget():
    with pytest.raises(ValueError):
        build_extremal(1, 2)
    with pytest.raises(ValueError):
        build_extremal(3, 0)
    with pytest.raises(BudgetExceededError):
        build_extremal(5, 4, budget=100)
