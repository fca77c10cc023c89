from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import random
from fractions import Fraction

import pytest

from sunflower import basesets, families
from sunflower.basesets import (
    BaseSetsOutput,
    ComponentCollection,
    Constants,
    ElementaryPart,
    Threshold,
    _extractions,
    _full_rank_pass,
    audit_terminal_bases,
    base_sets,
    constants_from_dict,
    canonical_constants,
    process_r,
)
from sunflower.errors import ContractViolationError, UniverseMismatchError
from sunflower.families import (SetFamily, Split, Subsplit, Universe,
                                _canonical_key, labels_mask, mask_labels)
from sunflower.gamma import exact_base
from sunflower.harness import generate_random_family

from oracles import is_elementary_part, log_threshold_oracle

# the five pinned configurations exercised throughout this file
SPLIT16 = Split.contiguous(16, 2)
FLAGSHIP = generate_random_family(16, 2, 64, seed=1, on_split=SPLIT16)
FLAGSHIP_CFG = Constants(0.995, 1.0005, 1.001, 2, 2, 64)

PLANTED = SetFamily.of(8, [[0, 4], [0, 5], [0, 6], [0, 7]])
PLANTED_CFG = Constants(0.9, 1.2, 1.5, 2, 2, 324)

IMMEDIATE = SetFamily.of(4, [[0, 2], [0, 3], [1, 2], [1, 3]])
IMMEDIATE_CFG = Constants(0.5, 1.2, 1.5, 2, 2, 4)

PRODUCT15 = SetFamily.of(15, [[0, y, z] for y in range(5, 10)
                              for z in range(10, 15)])
PRODUCT15_CFG = Constants(0.9, 1.2, 1.5, 2, 3, 720)

GRID16 = SetFamily.of(8, [[x, y] for x in range(4) for y in range(4, 8)])
GRID16_CFG = Constants(0.5, 1.1, 1.2, 2, 2, 16)
SPLIT8 = Split.contiguous(8, 2)


def masks8(*sets: list[int]) -> tuple[int, ...]:
    """Canonical member masks of sets over 8 labels, as parts carry them."""
    return SetFamily.of(8, sets).masks()


def test_constants_validation():
    with pytest.raises(ValueError):
        Constants(0.0, 1.2, 1.5, 2, 2)
    with pytest.raises(ValueError):
        Constants(1.0, 1.2, 1.5, 2, 2)
    with pytest.raises(ValueError):
        Constants(0.5, 1.0, 1.5, 2, 2)
    with pytest.raises(ValueError):
        Constants(0.5, 1.2, 0.9, 2, 2)
    with pytest.raises(ValueError):
        Constants(0.5, 1.2, 1.5, 1, 2)
    with pytest.raises(ValueError):
        Constants(0.5, 1.2, 1.5, 2, 0)
    with pytest.raises(ValueError):
        Constants(0.5, 1.2, 1.5, 2, 2, fam_size=0)
    with pytest.raises(ValueError):
        Constants(0.5, 1.2, 1.5, 2, 2, mode="bespoke")


@pytest.mark.parametrize("field, h, c", [("h", math.inf, math.inf),
                                          ("h", math.inf, 1.5),
                                          ("c", 1.2, math.inf),
                                          ("h", math.nan, 1.5),
                                          ("c", 1.2, math.nan)])
def test_constants_require_finite_h_and_c(field, h, c):
    # an infinite h or c would reach the engine's exact base c * k, which
    # no Fraction can hold
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        Constants(0.5, h, c, 2, 2, 4)


@pytest.mark.parametrize("k", [2.5, 2.0, True])
def test_constants_require_an_int_k(k):
    # k = 2.5 was taken, with b = 3.0; a bool is not an int here
    with pytest.raises(ValueError, match="^k must be an int"):
        Constants(0.5, 1.2, 1.5, k, 2)


@pytest.mark.parametrize("m", [2.5, 2.0, True])
def test_constants_require_an_int_m(m):
    # m = 2.5 was taken, and Threshold then raised a bare TypeError;
    # m = True was taken as 1
    with pytest.raises(ValueError, match="^m must be a positive int"):
        Constants(0.5, 1.1, 1.2, 2, m, 10)


@pytest.mark.parametrize("fam_size", [10.0, 10.5, True])
def test_constants_require_an_int_fam_size(fam_size):
    with pytest.raises(ValueError, match="^famSize must be a positive int"):
        Constants(0.5, 1.1, 1.2, 2, 2, fam_size)


def test_constants_accessors():
    cfg = Constants(0.5, 1.2, 1.5, 2, 2)
    assert cfg.b == 3.0
    assert cfg.fam_size is None
    sized = cfg.with_fam_size(100)
    assert sized.fam_size == 100
    assert sized.epsilon == cfg.epsilon
    with pytest.raises(ValueError):
        Threshold(cfg)  # famSize unset
    assert Threshold(sized).eps_need == 25   # floor is 0.25 * 100


def test_constants_json_shape():
    cfg = Constants(0.5, 1.2, 1.5, 2, 2, 100)
    assert cfg.to_json_obj() == {"mode": "surrogate", "epsilon": 0.5,
                                 "h": 1.2, "c": 1.5, "k": 2, "m": 2,
                                 "famSize": 100}


def test_constants_from_dict():
    obj = {"epsilon": 0.5, "h": 1.2, "c": 1.5, "k": 2, "m": 2,
           "famSize": 100}
    cfg = constants_from_dict(obj)
    assert cfg == Constants(0.5, 1.2, 1.5, 2, 2, 100)
    assert constants_from_dict(dict(obj, mode="surrogate")) == cfg
    with pytest.raises(ValueError):
        constants_from_dict({"epsilon": 0.5, "k": 2, "m": 2})  # h, c missing
    with pytest.raises(ValueError):
        constants_from_dict(dict(obj, mode="canonical"))  # explicit h, c clash
    canonical = constants_from_dict({"mode": "canonical", "epsilon": 0.5,
                                     "k": 3, "m": 2})
    assert canonical.mode == "canonical"
    assert canonical.h == math.exp(2.0)
    # wrong JSON types are rejected, never coerced
    for bad in [dict(obj, k=2.9), dict(obj, famSize=40.7), dict(obj, m=True),
                dict(obj, k="2"), dict(obj, famSize=False),
                dict(obj, epsilon=True), dict(obj, h="1.2"),
                dict(obj, c=None), dict(obj, epsilon=10 ** 400),
                dict(obj, c=math.inf), dict(obj, h=math.nan),
                {"mode": "canonical", "epsilon": "0.5", "k": 3, "m": 2},
                [1, 2], "constants", None]:
        with pytest.raises(ValueError) as info:
            constants_from_dict(bad)
        assert str(info.value).startswith("bad constants object: "), bad
    assert constants_from_dict(dict(obj, h=2)).h == 2.0  # ints are numbers


def test_canonical_constants_schedule():
    cfg = canonical_constants(0.5, 3, 2, 1000)
    assert cfg.h == 7.38905609893065
    assert cfg.c == 1618.1779919126539
    assert cfg.mode == "canonical"
    assert cfg.fam_size == 1000
    # the canonical schedule overflows floats below roughly 0.153
    with pytest.raises(ValueError) as info:
        canonical_constants(0.15, 3, 2)
    assert "0.153" in str(info.value)
    with pytest.raises(ValueError):
        canonical_constants(0.05, 2, 1)
    # 1 / epsilon is inf here: math.exp returns inf instead of raising
    with pytest.raises(ValueError, match="0.153"):
        canonical_constants(5e-324, 2, 1)


def test_threshold_frozen_values():
    assert Threshold(FLAGSHIP_CFG).value(2) == 1.017988369431074
    assert Threshold(FLAGSHIP_CFG).value(1) == 1.4126434737327922
    assert Threshold(FLAGSHIP_CFG).value(0) == 1.96029900125
    assert Threshold(PLANTED_CFG).value(2) == 1.306276561837299
    assert Threshold(PLANTED_CFG).value(1) == 2.9457785946574804
    assert Threshold(IMMEDIATE_CFG).value(2) == 0.0015362436303339633
    assert Threshold(PRODUCT15_CFG).value(3) == 1.042659901996805
    assert Threshold(PRODUCT15_CFG).value(2) == 2.351297811307138


def test_threshold_matches_log_oracle():
    for cfg in (FLAGSHIP_CFG, PLANTED_CFG, IMMEDIATE_CFG, PRODUCT15_CFG):
        thr = Threshold(cfg)
        for x in range(cfg.m + 1):
            assert thr.value(x) == pytest.approx(
                math.exp(log_threshold_oracle(cfg, x)), rel=1e-12)


def test_threshold_strictly_decreasing_and_meets():
    thr = Threshold(PLANTED_CFG)
    assert thr.value(0) > thr.value(1) > thr.value(2) > thr.value(3)
    # least counts: 7 >= 6.643..., 3 >= 2.9457..., 2 >= 1.306...
    assert thr.need == (7, 3, 2)
    with pytest.raises(ValueError):
        thr.value(-1)


def test_threshold_rank_zero_floor_ignores_c_and_h():
    # f(0) = k^-5 * eps^2m * famSize = 2^-5 * 0.25 * 896 = 7 exactly, with
    # no c or h in it; c ** h overflowing a float must not move the floor
    for h, c in ((1.2, 1.5), (40.0, 1e10)):
        thr = Threshold(Constants(0.5, h, c, 2, 1, 896))
        assert thr.value(0) == 7.0
        assert thr.need[0] == 7


def test_threshold_log_space_switch():
    # floors far below 1e-300, where the reference float comparison
    # switches to log space, still need a nonempty bucket: the least count
    # is 1
    cfg = Constants(1e-80, 1.2, 1.5, 2, 2, 4)   # IMMEDIATE_CFG at epsilon 1e-80
    thr = Threshold(cfg)
    for x in range(cfg.m + 1):
        assert thr.value(x) < 1e-300
        assert thr.need[x] == 1
    assert thr.eps_need == 1


def test_component_collection_initial():
    coll = ComponentCollection.initial(GRID16, SPLIT8)
    assert coll.rank == 2
    assert list(coll.components) == [(0, 1)]
    assert coll.components[(0, 1)] == GRID16.masks()
    assert coll.split.subsplit((0, 1)).rank == 2
    assert coll._family is GRID16   # the family anchors itself
    # members listed in any order are kept in canonical label order
    reversed_coll = ComponentCollection(SPLIT8,
                                        {(0, 1): GRID16.masks()[::-1]})
    assert reversed_coll.components[(0, 1)] == GRID16.masks()


def test_component_collection_validation():
    first, second = GRID16.masks()[:2]
    with pytest.raises(ValueError):
        ComponentCollection(SPLIT8, {})
    with pytest.raises(ValueError):
        # unsorted key
        ComponentCollection(SPLIT8, {(1, 0): GRID16.masks()})
    with pytest.raises(ValueError):
        ComponentCollection(SPLIT8, {(0, 1): ()})
    with pytest.raises(ValueError):
        # {0, 1} is not one-per-strip
        ComponentCollection(SPLIT8, {(0, 1): (0b11,)})
    with pytest.raises(ValueError):
        # {0} misses strip 1
        ComponentCollection(SPLIT8, {(0, 1): (0b1,)})
    with pytest.raises(ValueError, match="not an on-split 2-set"):
        # initial keeps every check
        ComponentCollection.initial(SetFamily.of(8, [[0, 4], [0, 1]]), SPLIT8)
    with pytest.raises(ValueError, match="duplicate member"):
        # the same member in two components
        ComponentCollection(SPLIT8, {(0,): (first,), (1,): (first,)})
    with pytest.raises(ValueError, match="duplicate member"):
        # the same member twice in one component
        ComponentCollection(SPLIT8, {(0, 1): (first, first)})
    with pytest.raises(ValueError):
        # mixed ranks
        ComponentCollection(SPLIT8, {(0,): (first,), (0, 1): (second,)})


def test_component_collection_rejects_labels_outside_universe():
    # {0, 4, 8}: label 8 lies outside the 8-label universe, even though
    # {0, 4} alone is a one-per-strip member
    with pytest.raises(ValueError, match="outside the universe"):
        ComponentCollection(SPLIT8, {(0, 1): (1 | 1 << 4 | 1 << 8,)})
    with pytest.raises(ValueError, match="outside the universe"):
        ComponentCollection(SPLIT8, {(0, 1): (1 << 2 | 1 << 9,)})
    with pytest.raises(ValueError, match="outside the universe"):
        ComponentCollection(SPLIT8, {(0, 1): (-1,)})
    with pytest.raises(ValueError):
        ComponentCollection.initial(SetFamily.of(16, [[0, 8]]), SPLIT8)


def test_component_collection_derive_lex_first():
    fam = SetFamily.of(8, [[0, 4], [0, 5], [0, 6], [0, 7], [1, 5]])
    anchors = SetFamily.of(8, [[4], [1]])
    coll, skipped = ComponentCollection.derive(fam, SPLIT8, 1, anchors)
    # {1,5} lands on key (0,) via anchor {1}; {0,4} only fits key (1,)
    assert set(coll.components) == {(0,), (1,)}
    assert [mask_labels(u) for u in coll.components[(0,)]] == [(1, 5)]
    assert [mask_labels(u) for u in coll.components[(1,)]] == [(0, 4)]
    assert [s.labels() for s in skipped] == [(0, 5), (0, 6), (0, 7)]
    with pytest.raises(ValueError):
        ComponentCollection.derive(fam, SPLIT8, 1, SetFamily.of(8, [[2]]))


def test_component_collection_derive_rejects_rank_out_of_range():
    # a rank above m has no strip selection at all, and rank 0 projects
    # every member to the empty set: both are input errors, not skips
    fam = SetFamily.of(8, [[0, 4], [1, 5]])
    for rank, anchors in ((3, fam), (0, SetFamily.of(8, [[]]))):
        with pytest.raises(ValueError,
                           match=rf"rank {rank} out of range \[1, 2\]"):
            ComponentCollection.derive(fam, SPLIT8, rank, anchors)


def test_component_collection_regroup():
    parts = (
        ElementaryPart(labels_mask([1]), (0, 1), masks8([1, 4]), "i"),
        ElementaryPart(labels_mask([0]), (0, 1), masks8([0, 4], [0, 5]), "i"),
        ElementaryPart(labels_mask([4]), (0, 1), masks8([2, 4]), "i"),
    )
    bases = SetFamily.of(8, [[0], [1], [4]], m=1)
    coll = ComponentCollection.initial(GRID16, SPLIT8)
    regrouped = coll.regroup(BaseSetsOutput(1, bases, parts, ()))
    assert regrouped.rank == 1
    assert set(regrouped.components) == {(0,), (1,)}
    # each member projects onto its part's base set, so the collection's
    # G is the output's base sets
    assert {u & SPLIT8.subsplit(key).union_mask
            for key, comp in regrouped.components.items()
            for u in comp} == set(bases.masks())
    # merged across parts, in the family's canonical label order
    assert [mask_labels(u) for u in regrouped.components[(0,)]] == [
        (0, 4), (0, 5), (1, 4)]
    assert [mask_labels(u) for u in regrouped.components[(1,)]] == [(2, 4)]
    # the regrouped collection keeps the same family, canonical order and
    # all
    assert regrouped._family is coll._family is GRID16


def test_is_elementary_part_variant_i():
    coll = ComponentCollection.initial(GRID16, SPLIT8)
    whole = ElementaryPart(0, (0, 1), GRID16.masks(), "i")
    assert is_elementary_part(whole, coll, GRID16_CFG) is True
    # a bucket concentrated on one element is not spread off its base
    lump = ElementaryPart(0, (0, 1),
                          masks8([0, 4], [0, 5], [0, 6], [0, 7]), "i")
    assert is_elementary_part(lump, coll, GRID16_CFG) is False
    # spread but below the rank-0 epsilon floor for a larger famSize
    strict = Constants(0.9, 1.1, 1.2, 2, 2, 64)
    assert is_elementary_part(whole, coll, strict) is False
    # members must all contain the base
    offbase = ElementaryPart(labels_mask([0]), (0, 1),
                             masks8([0, 4], [1, 5]), "i")
    assert is_elementary_part(offbase, coll, GRID16_CFG) is False
    # rank must sit below the collection's
    full_rank = ElementaryPart(labels_mask([0, 4]), (0, 1),
                               masks8([0, 4]), "i")
    assert is_elementary_part(full_rank, coll, GRID16_CFG) is False


def test_is_elementary_part_variant_ii():
    coll = ComponentCollection.initial(GRID16, SPLIT8)
    # at full rank the bucket floor is trivially satisfied when m' = m
    part = ElementaryPart(labels_mask([0, 4]), (0, 1),
                          masks8([0, 4]), "ii")
    assert is_elementary_part(part, coll, GRID16_CFG) is True
    short = ElementaryPart(labels_mask([0]), (0, 1),
                           masks8([0, 4]), "ii")
    assert is_elementary_part(short, coll, GRID16_CFG) is False
    # below full ambient rank the f(m') floor bites
    sub_coll, _ = ComponentCollection.derive(
        PLANTED, SPLIT8, 1, SetFamily.of(8, [[0]]))
    big = ElementaryPart(labels_mask([0]), (0,), PLANTED.masks(), "ii")
    assert is_elementary_part(big, sub_coll, PLANTED_CFG) is True
    small = ElementaryPart(labels_mask([0]), (0,),
                           masks8([0, 4], [0, 5]), "ii")
    # bucket of 2 misses f(1) = 2.9457...
    assert is_elementary_part(small, sub_coll, PLANTED_CFG) is False


def test_is_elementary_part_structural_errors():
    coll = ComponentCollection.initial(GRID16, SPLIT8)
    with pytest.raises(ValueError):
        is_elementary_part(
            ElementaryPart(0, (0,), GRID16.masks(), "i"),
            coll, GRID16_CFG)  # unknown key
    with pytest.raises(ValueError):
        is_elementary_part(
            ElementaryPart(labels_mask([0, 1]), (0, 1),
                           masks8([0, 4]), "ii"),
            coll, GRID16_CFG)  # base off the subsplit
    # part members outside the keyed component
    alien = ElementaryPart(0, (0, 1),
                           masks8([2, 5], [3, 4], [0, 6], [1, 7], [2, 7]),
                           "i")
    tiny_coll = ComponentCollection(SPLIT8, {
        (0, 1): masks8([2, 5], [3, 4])})
    with pytest.raises(ValueError):
        is_elementary_part(alien, tiny_coll, GRID16_CFG)
    with pytest.raises(ValueError):
        is_elementary_part(
            ElementaryPart(labels_mask([0, 4]), (0, 1),
                           masks8([0, 4]), "iii"),
            coll, GRID16_CFG)
    # empty member list is a condition failure, not a structural one
    empty = ElementaryPart(0, (0, 1), (), "i")
    assert is_elementary_part(empty, coll, GRID16_CFG) is False


def test_base_sets_flagship_first_call():
    coll = ComponentCollection.initial(FLAGSHIP, SPLIT16)
    out = base_sets(coll, FLAGSHIP_CFG)
    # singleton buckets miss f(2) = 1.0179..., so the rank falls once and
    # the eight strip-0 anchors drain the whole product
    assert out.r == 1
    assert [s.labels() for s in out.base_sets] == [
        (0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)]
    assert len(out.family) == 64
    assert out.family == FLAGSHIP
    assert len(out.parts) == 8
    for i, part in enumerate(out.parts):
        assert mask_labels(part.B) == (i,)
        assert part.key == (0, 1)
        assert len(part.T) == 8
        assert part.variant == "i"
    assert len(out.trace) == 8
    assert out.trace[0] == {"p": 1, "r": 1, "B": [0], "Xprime": [0, 1],
                            "sizeT": 8, "cumulative": 8}
    assert out.trace[-1]["cumulative"] == 64


def test_base_sets_output_builds_its_family_on_first_use():
    # the output family is the parts' union, built when first read and
    # kept; building it changes neither equality nor repr (the trace rows
    # are dicts, so an output was never hashable)
    coll = ComponentCollection.initial(FLAGSHIP, SPLIT16)
    out, again = (base_sets(coll, FLAGSHIP_CFG) for _ in "ab")
    assert out._family is None and out == again
    text = repr(out)
    assert out.family is out.family
    assert out.family == FLAGSHIP and again._family is None
    assert out == again and repr(out) == text
    assert "_family" not in text


def test_base_sets_postcondition_raises_with_trace(monkeypatch):
    # at m' = m every projection group is one member, so the threshold
    # postcondition of a returned rank below m is need[m] > 1: checked
    # with a table whose need[m] is 1, it must raise, not assert
    real_finish = basesets._finish

    def finish(r, parts, trace, collection, cfg, thr, b, full):
        broken = Threshold(cfg)
        broken.need = (*thr.need[:-1], 1)
        return real_finish(r, parts, trace, collection, cfg, broken, b, full)

    monkeypatch.setattr(basesets, "_finish", finish)
    coll = ComponentCollection.initial(FLAGSHIP, SPLIT16)
    with pytest.raises(ContractViolationError, match="threshold") as info:
        base_sets(coll, FLAGSHIP_CFG)
    assert len(info.value.trace) == 8


def test_base_sets_postcondition_raises_below_full_rank(monkeypatch):
    # a derived rank-2 collection of the whole 3x3x3 product returns rank
    # 1; make its projection groups look like one group holding every
    # part member when the output is checked, which reaches need[2] and
    # breaks the threshold postcondition, which must raise, not assert
    split = Split.contiguous(9, 3)
    product = SetFamily.of(9, [[x, y, z] for x in range(3)
                               for y in range(3, 6) for z in range(6, 9)])
    pairs = SetFamily.of(9, [[x, y] for x in range(3) for y in range(3, 6)])
    coll, skipped = ComponentCollection.derive(product, split, 2, pairs)
    cfg = Constants(0.995, 1.0005, 1.001, 2, 3, 216)
    assert not skipped and coll.rank == 2 and base_sets(coll, cfg).r == 1
    real_finish = basesets._finish

    def finish(*args):
        monkeypatch.setattr(basesets, "_projection_groups",
                            lambda members, union: {0: list(members)})
        return real_finish(*args)

    monkeypatch.setattr(basesets, "_finish", finish)
    with pytest.raises(ContractViolationError, match="threshold") as info:
        base_sets(coll, cfg)
    assert len(info.value.trace) == 3


def test_base_sets_immediate_threshold():
    coll = ComponentCollection.initial(IMMEDIATE, Split.contiguous(4, 2))
    out = base_sets(coll, IMMEDIATE_CFG)
    assert out.r == 2
    assert [(mask_labels(p.B), p.key, len(p.T), p.variant)
            for p in out.parts] == [
        ((0, 2), (0, 1), 1, "ii"),
        ((0, 3), (0, 1), 1, "ii"),
        ((1, 2), (0, 1), 1, "ii"),
        ((1, 3), (0, 1), 1, "ii"),
    ]
    assert out.base_sets == IMMEDIATE
    assert out.family == IMMEDIATE


def test_base_sets_outputs_are_elementary():
    coll = ComponentCollection.initial(FLAGSHIP, SPLIT16)
    out = base_sets(coll, FLAGSHIP_CFG)
    for part in out.parts:
        assert is_elementary_part(part, coll, FLAGSHIP_CFG)


def test_base_sets_size_bound():
    for fam, split, cfg in [
        (FLAGSHIP, SPLIT16, FLAGSHIP_CFG),
        (IMMEDIATE, Split.contiguous(4, 2), IMMEDIATE_CFG),
        (PRODUCT15, Split.contiguous(15, 3), PRODUCT15_CFG),
    ]:
        coll = ComponentCollection.initial(fam, split)
        out = base_sets(coll, cfg)
        assert len(out.family) * 3 ** (cfg.m - out.r + 1) >= len(fam)


def test_base_sets_input_validation():
    # derive checks the anchors a user gives, over the members it
    # assigns: the universe, that each is an on-split rank-set and that
    # each lies in the assigned members' shadow ...
    split = Split.contiguous(4, 2)
    with pytest.raises(UniverseMismatchError,
                       match="family or anchors over a different universe"):
        ComponentCollection.derive(IMMEDIATE, split, 2,
                                   SetFamily.of(6, [[0, 3]]))
    off_split = SetFamily(IMMEDIATE.universe,
                          IMMEDIATE.masks() + (0b11,), m=2)
    with pytest.raises(ValueError, match="not an on-split 2-set"):
        ComponentCollection.derive(IMMEDIATE, split, 2, off_split)
    partial = IMMEDIATE.difference(SetFamily.of(4, [[1, 3]]))
    with pytest.raises(ValueError, match="not in the family's shadow"):
        ComponentCollection.derive(partial, split, 2, IMMEDIATE)
    # ... and the engine what the collection cannot know: the constants'
    # strip count, famSize and the 3^(-2m) floor of famSize
    coll = ComponentCollection.initial(IMMEDIATE, split)
    cfg = IMMEDIATE_CFG
    with pytest.raises(ValueError, match="strip count"):
        base_sets(coll, Constants(0.5, 1.2, 1.5, 2, 3, 4))
    with pytest.raises(ValueError, match="famSize is unset"):
        base_sets(coll, Constants(0.5, 1.2, 1.5, 2, 2))
    with pytest.raises(ValueError, match="floor"):
        base_sets(coll, cfg.with_fam_size(4 * 81 + 1))


def test_extractions_rank_zero_round():
    # draining the component by hand at rank 0: the whole spread product
    # comes out as a single base-free part, in canonical order
    cfg = GRID16_CFG
    coll = ComponentCollection.initial(GRID16, SPLIT8)
    comp = coll.components[(0, 1)]
    live = set(comp)
    found = list(_extractions(0, live, comp, coll.split.subsplit((0, 1)),
                              Threshold(cfg).eps_need, exact_base(cfg.b)))
    assert len(found) == 1
    bm, t_masks = found[0]
    assert bm == 0
    assert tuple(t_masks) == GRID16.masks()
    assert not live
    part = ElementaryPart(bm, (0, 1), tuple(t_masks), "i")
    assert is_elementary_part(part, coll, cfg)


def test_extractions_read_live_members_only():
    # at full rank f(2) < 1, so every member's own bucket is taken: the
    # full-rank pass yields each member once, in label order, and leaves
    # nothing live
    cfg = GRID16_CFG
    coll = ComponentCollection.initial(GRID16, SPLIT8)
    comp = coll.components[(0, 1)]
    union = coll.split.subsplit((0, 1)).union_mask
    live = set(comp)
    drained = list(_full_rank_pass(comp, union, live, Threshold(cfg).need[2],
                                   True))
    assert drained[:2] == [(0b10001, [0b10001]), (0b100001, [0b100001])]
    assert [bm for bm, _ in drained] == list(comp)
    assert all(t == [bm] for bm, t in drained)
    assert not live
    # below m' the drain reads the live set, not the component: with the
    # members containing {0} gone from it (not from the component), rank 1
    # skips {0} and takes the spread bucket of {1} first
    args = (comp, coll.split.subsplit((0, 1)), 1, exact_base(cfg.b))
    first = next(_extractions(1, set(comp), *args))
    assert first == (0b1, [u for u in comp if u & 0b1])
    second = next(_extractions(1, {u for u in comp if not u & 0b1}, *args))
    assert second == (0b10, [u for u in comp if u & 0b10])


def test_clean_to_spread_searches_at_most_bucket_size_plus_one_times(
        monkeypatch):
    # a cleaning's violator search either names a set some live member
    # contains, and the members containing it are dropped, or ends the
    # cleaning; so one call searches at most |bucket| + 1 times.  A count
    # map out of step with the bucket finds the same violator forever, and
    # this fails at the first search past that bound
    real_clean = basesets._clean_to_spread
    real_search = basesets._max_violator_masks
    searches: list[list[int]] = []   # per cleaning: [made, allowed]

    def clean(bucket, *args):
        searches.append([0, len(bucket) + 1])
        return real_clean(bucket, *args)

    def search(*args):
        made = searches[-1]
        made[0] += 1
        assert made[0] <= made[1], "a cleaning searched past |bucket| + 1"
        return real_search(*args)

    monkeypatch.setattr(basesets, "_clean_to_spread", clean)
    monkeypatch.setattr(basesets, "_max_violator_masks", search)
    # at b = 4/3 the three members through {3, 7} violate and are dropped,
    # and the two left are spread
    fam = SetFamily.of(9, [[0, 3, 7], [0, 5, 7], [1, 3, 7], [2, 3, 6],
                           [2, 3, 7]], m=3)
    free = Split.contiguous(9, 3).subsplit((1, 2))
    assert basesets._clean_to_spread(list(fam.masks()), free, 4, 3) == \
        [labels_mask([0, 5, 7]), labels_mask([2, 3, 6])]
    assert searches == [[2, 6]]
    # the m = 5 sweep input counts cleanings whose traces meet
    del searches[:]
    split = Split.contiguous(40, 5)
    with pytest.raises(ContractViolationError):
        process_r(generate_random_family(40, 5, 1000, 1, on_split=split),
                  split, Constants(0.995, 1.0005, 1.001, 2, 5, 1000))
    assert any(made >= 2 for made, _ in searches)


def test_clean_to_spread_runs_once_per_bucket_per_call(monkeypatch):
    # a passed-over (base, component) pair is decided again only after its
    # live bucket shrinks, so within one engine call no decision repeats,
    # whether a rule settles it or a cleaning counts it; each counted
    # cleaning builds one trace count map, however many violators it
    # removes
    from test_acceptance import engine_corpus
    decided: list[list[tuple]] = []
    cleaned: list[list[tuple]] = []
    maps = []
    real_drain = basesets._extractions
    real_groups = basesets._projection_groups
    real_clean = basesets._clean_to_spread
    real_engine = basesets.base_sets
    real_counts = basesets._carried_counts

    class Group(list):
        # a projection group that knows its projection, the base whose
        # bucket it is
        def __init__(self, bm, members):
            super().__init__(members)
            self.bm = bm

    def groups(members, union):
        return {bm: Group(bm, t)
                for bm, t in real_groups(members, union).items()}

    def drain(r, live, comp, sub, *args):
        class Live(set):
            # the drain tests one bucket against the live set per popped
            # base
            def isdisjoint(self, bucket):
                disjoint = set.isdisjoint(self, bucket)
                if not disjoint:
                    decided[-1].append((sub.indices, bucket.bm, tuple(
                        u for u in bucket if u in self)))
                return disjoint
        view = Live(live)
        for bm, t in real_drain(r, view, comp, sub, *args):
            live.difference_update(t)
            yield bm, t

    def clean(bucket, free, p, q):
        cleaned[-1].append((free, tuple(bucket), p, q))
        return real_clean(bucket, free, p, q)

    def engine_call(*args, **kwargs):
        decided.append([])
        cleaned.append([])
        return real_engine(*args, **kwargs)

    def counts(masks, sub):
        maps.append(sub.indices)
        return real_counts(masks, sub)

    monkeypatch.setattr(basesets, "_extractions", drain)
    monkeypatch.setattr(basesets, "_projection_groups", groups)
    monkeypatch.setattr(basesets, "_clean_to_spread", clean)
    monkeypatch.setattr(basesets, "base_sets", engine_call)
    monkeypatch.setattr(basesets, "_carried_counts", counts)

    def run(label, fam, split, cfg):
        del decided[:], cleaned[:], maps[:]
        try:
            process_r(fam, split, cfg)
        except ContractViolationError:
            pass
        assert decided, label
        for seen in decided:
            assert len(set(seen)) == len(seen), label
        assert maps == [free.indices for seen in cleaned
                        for free, *_ in seen], label
        return sum(map(len, decided)), [c for seen in cleaned for c in seen]

    decisions = 0
    for entry in engine_corpus():
        decisions += run(*entry)[0]
    assert decisions >= 50
    # the corpus's buckets all fall to the rules; on the m = 5 input
    # `gen-random --n 40 --m 5 --size 1000 --on-split --seed 1`, on which
    # process_r fails at step 2, buckets above b whose traces meet are
    # counted
    split = Split.contiguous(40, 5)
    cfg = Constants(0.995, 1.0005, 1.001, 2, 5, 1000)
    _, counted = run("m = 5", generate_random_family(40, 5, 1000, 1,
                                                     on_split=split),
                     split, cfg)
    assert counted
    for free, bucket, p, q in counted:
        traces = [u & free.union_mask for u in bucket]
        assert len(bucket) * q > p
        assert sum(map(int.bit_count, traces)) > \
            functools.reduce(operator.or_, traces).bit_count()
    # at b = 3, after label 0 takes its 10 disjoint members at rank 1,
    # labels 10 and 21 keep b live members whose traces meet: rule 1
    # settles them at the tie, with no count
    split = Split.contiguous(30, 3)
    tie = SetFamily.of(30, [*([0, 10 + i, 20 + i] for i in range(10)),
                            [1, 10, 21], [2, 10, 21], [3, 10, 21]], m=3)
    assert run("tie", tie, split, Constants(0.995, 1.0005, 1.5, 2, 3, 300)) \
        == (3, [])


def test_process_r_flagship():
    res = process_r(FLAGSHIP, SPLIT16, FLAGSHIP_CFG)
    assert res.p_hat == 2
    assert res.r_hat == 1
    assert [s.labels() for s in res.bases_hat] == [
        (0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)]
    assert res.family_hat == FLAGSHIP
    assert [(s.p, s.r_in, s.output.r, len(s.output.family))
            for s in res.steps] == [(1, 2, 1, 64), (2, 1, 1, 64)]
    assert [(mask_labels(p.B), p.key, len(p.T), p.variant)
            for p in res.parts_hat] == [
        ((i,), (0,), 8, "ii") for i in range(8)]
    assert len(res.trace) == 16
    assert {row["p"] for row in res.trace} == {1, 2}


def test_process_r_planted():
    res = process_r(PLANTED, Split.contiguous(8, 2), PLANTED_CFG)
    assert res.p_hat == 2
    assert res.r_hat == 1
    assert [s.labels() for s in res.bases_hat] == [(0,)]
    assert [(s.p, s.r_in, s.output.r, len(s.output.family))
            for s in res.steps] == [(1, 2, 1, 4), (2, 1, 1, 4)]
    assert [(mask_labels(p.B), p.key, len(p.T), p.variant)
            for p in res.parts_hat] == [((0,), (0,), 4, "ii")]


def test_process_r_immediate_stop():
    res = process_r(IMMEDIATE, Split.contiguous(4, 2), IMMEDIATE_CFG)
    assert res.p_hat == 1
    assert res.r_hat == 2
    assert res.bases_hat == IMMEDIATE
    assert len(res.steps) == 1
    assert all(p.variant == "ii" for p in res.parts_hat)


def test_process_r_three_strips():
    res = process_r(PRODUCT15, Split.contiguous(15, 3), PRODUCT15_CFG)
    assert res.p_hat == 2
    assert res.r_hat == 2
    assert [(s.p, s.r_in, s.output.r, len(s.output.family))
            for s in res.steps] == [(1, 3, 2, 25), (2, 2, 2, 25)]
    assert [(mask_labels(p.B), p.key, len(p.T), p.variant)
            for p in res.parts_hat] == [
        ((0, y), (0, 1), 5, "ii") for y in range(5, 10)]


def test_process_r_contract_violation():
    # famSize far above what the family supports: no rank can retain enough
    with pytest.raises(ContractViolationError) as info:
        process_r(IMMEDIATE, Split.contiguous(4, 2), PLANTED_CFG)
    assert info.value.trace == []
    assert info.value.partial_steps == ()


# process_r on random on-split families with the bench constants: n = 8m,
# m = 3..6, |F| in {300, 1000} (m = 3 has only 8^3 = 512 on-split 3-sets),
# seeds 1..3.  Each input pins (r_hat, p_hat), or None for the
# ContractViolationError below, each completed step's extracted count and
# the sha256 of the trace rows.  The nine Nones are the engine's open
# defect at m >= 4 (its retained-fraction guarantee fails after step 1),
# pinned as they stand; a change to the engine that moves a pin on purpose
# re-pins it and logs the move.
SWEEP_FAILURE = ("no rank produced the guaranteed retained fraction; the "
                 "constants are outside the supported regime or the engine "
                 "has a bug")
SWEEP_PINS = {
    (3, 300, 1): ((2, 2), (292, 193),
        "f5f24f7041101529e1c73a02b722ed5651219969ceb2355fc73e16cb452f5a63"),
    (3, 300, 2): ((2, 2), (300, 183),
        "747111def98773cb715a3f03148d50070e3446c86d05356bb016d848bde4f150"),
    (3, 300, 3): ((2, 2), (296, 196),
        "49bfebfdd2b65f2922f8702b5cf30366c4b5699a01548ba180d78595d1de1384"),
    (4, 300, 1): (None, (96,),
        "e0cac0480caab462b74a2c4fe1c596779a595e9e471726f821098baf90c028e4"),
    (4, 300, 2): (None, (48,),
        "6734558c19652aee240e14227815f735bab6c1068914c7cbb062fdb10a1d8559"),
    (4, 300, 3): (None, (80,),
        "ff61a6b533bbb53d40430928aae1930d35d73334a7d15e71bc614b66a2003755"),
    (4, 1000, 1): ((1, 4), (714, 444, 319, 319),
        "19840bd68ca8866eac1defe28e179a8b654762c5394f462989e4052b0354d092"),
    (4, 1000, 2): ((1, 4), (707, 407, 140, 140),
        "2caa7f11b024af9cd078ac3c455cc25539a4f6891c3dd0ca679d9de89962ea96"),
    (4, 1000, 3): ((1, 4), (698, 392, 219, 219),
        "9ee4ce087c193dc20ee19fc65583b05ee62e0f43781eedb9b4c32da00c891642"),
    (5, 300, 1): ((2, 2), (86, 86),
        "80d9184572cd7860ab6da8ad5620bce0198b85b0f3146598b82cc0181a4a4dcd"),
    (5, 300, 2): ((3, 2), (16, 16),
        "3ad7b7b1fa63c85d6a596d47c05937de63dab77ee209b0f123fc6cd01e8de880"),
    (5, 300, 3): ((2, 2), (93, 93),
        "fee8527872571a1ac98c307a49a6b0b01563d323a65246c1711cae564cce9dac"),
    (5, 1000, 1): (None, (307,),
        "dc3bc1e022513017da5201fbcef2da8961e470d79ad4299166c0ddcdb6fd98aa"),
    (5, 1000, 2): (None, (308,),
        "f10c157009eb2d238afc538c1136843ece2bd664ed2a14bdc39e66b10cc1bed8"),
    (5, 1000, 3): (None, (330,),
        "8dcdb883fabb7cbe7ba2279170b9fabcbb5faf2016c1966e3c1411e26d0adc32"),
    (6, 300, 1): ((1, 2), (241, 241),
        "d30e50a348e9e355d80c0244a11f4955af491030c00e833276186e71bbbff9c8"),
    (6, 300, 2): ((1, 2), (240, 240),
        "ff1eaba4d454227dccc9db862fab0034d0f2136b2f6c0200cacc529a00c5c95a"),
    (6, 300, 3): ((1, 2), (241, 241),
        "f067d40e9263afb92799a157696c3e9396ce563efcc875c4bc39b584319e8c09"),
    (6, 1000, 1): (None, (18,),
        "a6a8fe3300c95f18ad43f062ad0c3d9a9346f92fa3ea328cbf26deb4c9a9a5d7"),
    (6, 1000, 2): (None, (18,),
        "e44593c46fe6b4438ef1242c57b737b2e80a195d0ce8ccbe72a606c0501d092a"),
    (6, 1000, 3): (None, (18,),
        "74c907898cb6790c6cd961423aa7fd7d9a373a654802ac290ef92291b1977415"),
}


@pytest.mark.parametrize("m, size, seed", sorted(SWEEP_PINS))
def test_process_r_sweep_matches_its_pins(m, size, seed):
    n = 8 * m
    split = Split.contiguous(n, m)
    family = generate_random_family(n, m, size, seed, on_split=split)
    try:
        res = process_r(family, split, Constants(0.995, 1.0005, 1.001, 2, m))
    except ContractViolationError as exc:
        assert str(exc) == SWEEP_FAILURE
        outcome, steps, trace = None, exc.partial_steps, exc.trace
    else:
        outcome, steps, trace = (res.r_hat, res.p_hat), res.steps, res.trace
    digest = hashlib.sha256(
        json.dumps(list(trace), sort_keys=True).encode()).hexdigest()
    assert (outcome, tuple(len(s.output.family) for s in steps), digest) \
        == SWEEP_PINS[m, size, seed]


def test_process_r_postcondition_raises(monkeypatch):
    # an engine output whose rank climbs breaks the driver's rank-descent
    # postcondition, which must raise, not assert
    engine = basesets.base_sets

    def climbing(*args, **kwargs):
        out = engine(*args, **kwargs)
        return BaseSetsOutput(3, out.base_sets, out.parts, out.trace)

    monkeypatch.setattr(basesets, "base_sets", climbing)
    with pytest.raises(ContractViolationError, match="strictly decrease") \
            as info:
        process_r(FLAGSHIP, SPLIT16, FLAGSHIP_CFG)
    assert len(info.value.trace) == 8


def test_process_r_input_validation():
    with pytest.raises(ValueError):
        process_r(IMMEDIATE, Split.contiguous(8, 2), IMMEDIATE_CFG)
    with pytest.raises(ValueError):
        process_r(IMMEDIATE, Split.contiguous(4, 1),
                  Constants(0.5, 1.2, 1.5, 2, 2, 4))
    with pytest.raises(ValueError):
        process_r(SetFamily.of(4, [], m=2), Split.contiguous(4, 2),
                  IMMEDIATE_CFG)
    # {0, 1} is not one-per-strip: the first engine call checks every
    # member as a base
    with pytest.raises(ValueError, match="not an on-split 2-set") as info:
        process_r(SetFamily.of(4, [[0, 2], [0, 3], [0, 1]]),
                  Split.contiguous(4, 2), IMMEDIATE_CFG)
    assert info.value.partial_steps == ()


def spy_on_set_enumeration(monkeypatch) -> list:
    """Set a spy as ``Subsplit.p_set_masks``, the enumeration of every
    on-split r-set (in the oracles, not the package), yielding no sets,
    and return the list of its calls: an engine that reads its buckets
    off projection groups leaves it empty."""
    calls = []

    def p_set_masks(self, p):
        calls.append((self.indices, p))
        return iter(())

    monkeypatch.setattr(Subsplit, "p_set_masks", p_set_masks, raising=False)
    return calls


def test_process_r_first_step_reuses_the_family(monkeypatch):
    # step 1's only component is the family itself, and no step builds
    # member columns over it: the drain reads projection groups, and no
    # r-set is enumerated on a subsplit (the flagship's buckets all fall
    # to the drain's rules, so no counted cleaning queries the shadow of
    # step 1's bases, the family itself); the audit builds the family's
    # columns, once; ComponentCollection.initial tests each member as an
    # on-split m-set (on the full subsplit) exactly once, and nothing else
    # is tested there; and no collection is re-validated at any step
    fam = SetFamily(FLAGSHIP.universe, FLAGSHIP.masks(), m=FLAGSHIP.m)
    built, full_checks = [], []
    real_columns, real_carries = families._columns, Subsplit.carries_mask

    def columns(masks):
        built.append(masks)
        return real_columns(masks)

    def carries(self, s):
        if self.rank == self.split.m:
            full_checks.append(s)
        return real_carries(self, s)

    def no_init(self, *args):
        raise AssertionError("process_r re-validated a collection")

    monkeypatch.setattr(families, "_columns", columns)
    monkeypatch.setattr(Subsplit, "carries_mask", carries)
    monkeypatch.setattr(ComponentCollection, "__init__", no_init)
    enumerated = spy_on_set_enumeration(monkeypatch)
    res = process_r(fam, SPLIT16, FLAGSHIP_CFG)
    assert [s.p for s in res.steps] == [1, 2]
    assert sorted(full_checks) == sorted(fam.masks())
    assert built == []
    assert audit_terminal_bases(res, fam, FLAGSHIP_CFG)["all_sandwich_ok"]
    assert built == [fam._mask_set]
    assert enumerated == []


def test_process_r_and_its_audit_count_the_family_once(monkeypatch):
    # one process_r run and its audit read the input family through one
    # pass, the audit's member columns, and count no restriction afresh:
    # no other columns are built, no r-set is enumerated on a subsplit,
    # and the audit's spreadness check is settled by the degree bound.
    # Only a counted cleaning builds columns in the engine, of its step's
    # bases (at step 1 the family itself, which the audit then reuses),
    # and the corpus's buckets all fall to the drain's rules, so the
    # engine builds none at all
    from test_acceptance import engine_corpus
    built, counted = [], []
    real_columns = families._columns
    real_counts = families._subset_counts

    def columns(masks):
        built.append(masks)
        return real_columns(masks)

    def counts(masks, *args):
        counted.append(tuple(masks))
        return real_counts(masks, *args)

    # the columns every family keeps for its shadow queries, the input
    # family's or the engine's bases', are built here
    monkeypatch.setattr(families, "_columns", columns)
    monkeypatch.setattr(families, "_subset_counts", counts)
    enumerated = spy_on_set_enumeration(monkeypatch)
    later_step_runs = 0
    for label, fam, split, cfg in engine_corpus():
        fam = SetFamily(fam.universe, fam.masks(), m=fam.m)  # none kept
        result = process_r(fam, split, cfg)
        assert built == [], label
        audit_terminal_bases(result, fam, cfg)
        assert built == [fam._mask_set], label
        del built[:]
        assert counted == [], label
        assert enumerated == [], label
        later_step_runs += len(result.steps) > 1
    assert later_step_runs >= 3


def bench_shaped(seed: int) -> SetFamily:
    """300 random one-per-strip 3-sets on the contiguous 3-split of 24
    labels, the shape of the engine-fixpoint bench inputs."""
    rng = random.Random(seed)
    return SetFamily(Universe(24), [
        1 << r // 64 | 1 << 8 + r // 8 % 8 | 1 << 16 + r % 8
        for r in rng.sample(range(512), 300)], m=3)


SPLIT24 = Split.contiguous(24, 3)
BENCH_CFG = Constants(0.995, 1.0005, 1.001, 2, 3)


def test_process_r_keys_no_member_after_the_input_sort(monkeypatch):
    # the input's one canonical sort orders every later member list (the
    # regrouped components, familyHat), which filter it by membership, so
    # past family.masks() no member mask gets a string key; the engine's
    # bases, which are not members, still do
    keyed = []
    real_key = families._canonical_key

    def key(mask):
        keyed.append(mask)
        return real_key(mask)

    for seed in range(3):
        fam = bench_shaped(seed)
        members = set(fam.masks())
        del keyed[:]
        with monkeypatch.context() as patch:
            patch.setattr(families, "_canonical_key", key)
            patch.setattr(basesets, "_canonical_key", key)
            result = process_r(fam, SPLIT24, BENCH_CFG)
            result.family_hat.to_json_obj()
        assert len(result.steps) > 1, seed   # the run regroups
        assert keyed and not members.intersection(keyed), seed


def test_process_r_family_hat_is_canonical():
    # familyHat is built in canonical order, and is the terminal step's
    # output family
    from test_acceptance import engine_corpus
    runs = [(fam, split, cfg) for _, fam, split, cfg in engine_corpus()]
    runs += [(bench_shaped(seed), SPLIT24, BENCH_CFG) for seed in range(3)]
    for fam, split, cfg in runs:
        result = process_r(fam, split, cfg)
        members = [u for part in result.parts_hat for u in part.T]
        assert result.family_hat.masks() == tuple(
            sorted(members, key=_canonical_key))
        assert result.steps[-1].output.family is result.family_hat


def test_every_engine_step_runs_through_a_traced_name(monkeypatch):
    # the bench tracer wraps basesets.base_sets and
    # ComponentCollection.regroup: every step of a run goes through the
    # first and every step after the first through the second, so each
    # layer's time is booked to its own name
    calls = {}
    real_engine, real_regroup = basesets.base_sets, ComponentCollection.regroup

    def engine(*args, **kwargs):
        calls["base_sets"] += 1
        return real_engine(*args, **kwargs)

    def regroup(self, output):
        calls["regroup"] += 1
        return real_regroup(self, output)

    monkeypatch.setattr(basesets, "base_sets", engine)
    monkeypatch.setattr(ComponentCollection, "regroup", regroup)
    for seed in range(3):
        calls.update(base_sets=0, regroup=0)
        result = process_r(bench_shaped(seed), SPLIT24, BENCH_CFG)
        steps = len(result.steps)
        assert steps > 1, seed   # the run regroups
        assert calls == {"base_sets": steps, "regroup": steps - 1}, seed


def test_constructor_checks_what_regroup_trusts():
    # the driver's second call runs on the first call's output regrouped,
    # unchecked; the constructor builds the same collection from the same
    # components with every check, and so does derive anchored on the
    # output's base sets; the engine returns the same output on all
    # three, and derive rejects an off-split anchor
    first = process_r(FLAGSHIP, SPLIT16, FLAGSHIP_CFG).steps[0].output
    regrouped = ComponentCollection.initial(FLAGSHIP, SPLIT16).regroup(first)
    bases = first.base_sets
    coll = ComponentCollection(SPLIT16, regrouped.components)
    derived, skipped = ComponentCollection.derive(FLAGSHIP, SPLIT16, 1,
                                                  bases)
    assert not skipped
    want = base_sets(regrouped, FLAGSHIP_CFG, 2)
    for built in (coll, derived):
        assert (built.rank, built.components) == (regrouped.rank,
                                                  regrouped.components)
        assert base_sets(built, FLAGSHIP_CFG, 2) == want
    off_split = SetFamily(bases.universe, bases.masks() + (0b11,), m=2)
    with pytest.raises(ValueError, match="not an on-split 1-set"):
        ComponentCollection.derive(FLAGSHIP, SPLIT16, 1, off_split)


def test_process_r_steps_meet_interstep_floor():
    cfg = FLAGSHIP_CFG
    res = process_r(FLAGSHIP, SPLIT16, cfg)
    for step in res.steps:
        assert len(step.output.family) * 3 ** (2 * cfg.m) >= cfg.fam_size


def test_audit_flagship():
    res = process_r(FLAGSHIP, SPLIT16, FLAGSHIP_CFG)
    audit = audit_terminal_bases(res, FLAGSHIP, FLAGSHIP_CFG)
    assert audit["p_hat"] == 2
    assert audit["r_hat"] == 1
    assert audit["all_sandwich_ok"] is True
    assert len(audit["parts"]) == 8
    for row in audit["parts"]:
        assert row["sizeT"] == 8
        assert row["restriction"] == 8
        assert row["lower_ok"] is True
        assert row["upper_ok"] is True
        assert row["chain_restriction_lt_spread_bound"] is True
    for row in audit["consistency"]:
        assert row["sum_parts"] == 8
        assert row["discarded"] == 0
        assert row["ok"] is True
    assert audit["spread_hypothesis_level"] == 1.3876820424689809
    assert audit["spread_hypothesis_holds"] is True
    assert audit["m_hypothesis_holds"] is True
    assert [(c["ok"], c["hypothesis"]) for c in audit["chain"]] == [
        (True, "met"),
        (False, "unmet"),   # the middle step needs the canonical schedule
        (True, "met"),
    ]


def test_audit_three_strips_sandwich():
    res = process_r(PRODUCT15, Split.contiguous(15, 3), PRODUCT15_CFG)
    audit = audit_terminal_bases(res, PRODUCT15, PRODUCT15_CFG)
    assert audit["all_sandwich_ok"] is True
    assert all(row["ok"] for row in audit["consistency"])


def test_audit_requires_ordered_constants():
    res = process_r(IMMEDIATE, Split.contiguous(4, 2), IMMEDIATE_CFG)
    bad = Constants(0.5, 1.5, 1.2, 2, 2, 4)  # h > c
    with pytest.raises(ValueError):
        audit_terminal_bases(res, IMMEDIATE, bad)


def test_audit_unmet_hypotheses_are_labeled():
    # the planted family is nowhere near c^c * k * ln k spread
    res = process_r(PLANTED, Split.contiguous(8, 2), PLANTED_CFG)
    audit = audit_terminal_bases(res, PLANTED, PLANTED_CFG)
    assert audit["spread_hypothesis_holds"] is False
    assert audit["chain"][0]["hypothesis"] == "unmet"
    # failing chain lines must always be hypothesis-explained
    for line in audit["chain"]:
        if not line["ok"]:
            assert line["hypothesis"] == "unmet"
