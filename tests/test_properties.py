"""Property tests: each subset-map fast path against its brute reference.

The references use only SetFamily.shadow, SetFamily.restrict,
SetFamily.shadow_contains, Subsplit.p_sets and the unpruned sunflower
oracle, none of which goes through the subset-bucket kernel.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sunflower.families import SetFamily, Split, Universe, subset_buckets
from sunflower.gamma import (check_gamma, check_gamma_on_subsplit,
                             maximal_violator)
from sunflower.sunflowers import (find_sunflower_exact,
                                  sunflower_free_check_oracle,
                                  verify_certificate)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def families(draw, n=None, min_size=0, split=None):
    """Random families on n <= 8 labels with members of at most 3 labels;
    with ``split``, members lie on it (at most one label per strip)."""
    if n is None:
        n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 3))
    pool = [x for x in range(1 << n) if x.bit_count() <= m]
    if split is not None:
        pool = [x for x in pool if split.full_subsplit().carries(
            split.universe.from_bits(x))]
    masks = draw(st.sets(st.sampled_from(pool), min_size=min_size,
                         max_size=min(12, len(pool))))
    return SetFamily.from_masks(Universe(n), masks, m=m)


@st.composite
def bases(draw):
    q = draw(st.integers(1, 5))
    return Fraction(draw(st.integers(q + 1, 4 * q + 3)), q)


@st.composite
def subsplit_cases(draw):
    """A family, a range family and a subsplit of a random split.  The
    family lies on the split half the time, and the range family is the
    family itself half the time, as in the extraction engine."""
    strips = draw(st.integers(1, 3))
    d = draw(st.integers(1, 8 // strips))
    n = strips * d
    perm = draw(st.permutations(range(n)))
    split = Split.of(n, [sorted(perm[i * d:(i + 1) * d])
                         for i in range(strips)])
    indices = sorted(draw(st.sets(st.integers(0, strips - 1), min_size=1)))
    on_split = split if draw(st.booleans()) else None
    family = draw(families(n=n, min_size=1, split=on_split))
    over = family if draw(st.booleans()) else draw(families(n=n))
    return family, split.subsplit(indices), over


def brute_max_ratio(family: SetFamily, candidates, b: Fraction):
    """Strict max over candidates in canonical order: the first maximizer
    is the least label tuple."""
    best, witness = Fraction(0), None
    for s in sorted(candidates, key=lambda s: s.labels()):
        count = len(family.restrict(s))
        if count == 0:
            continue
        ratio = Fraction(count) * b ** s.cardinality / len(family)
        if ratio > best:
            best, witness = ratio, s
    return (best < 1, None if best < 1 else witness, best)


def report_tuple(report):
    return report.holds, report.witness, report.ratio


@SETTINGS
@given(families())
def test_subset_buckets_matches_restrictions(family):
    masks = family.masks()
    want = {s.bits: [u for u in masks if u & s.bits == s.bits]
            for s in family.shadow()}
    assert subset_buckets(masks) == want
    assert family.subset_map() == want


@SETTINGS
@given(families(min_size=1), bases())
def test_check_gamma_matches_brute_scan(family, b):
    candidates = [s for s in family.shadow() if s.bits]
    assert report_tuple(check_gamma(family, b)) == brute_max_ratio(
        family, candidates, b)


@SETTINGS
@given(subsplit_cases(), bases())
def test_check_gamma_on_subsplit_matches_brute_scan(case, b):
    family, sub, over = case
    candidates = [s for p in range(1, sub.rank + 1) for s in sub.p_sets(p)
                  if over.shadow_contains(s)]
    assert report_tuple(check_gamma_on_subsplit(family, sub, over, b)) == \
        brute_max_ratio(family, candidates, b)


def brute_max_violator(family, sub, over, seed, b):
    """The maximal-violator definition, level by level from the top."""
    floor = len(family.restrict(seed)) * b ** seed.cardinality
    free = sub.minus(seed)
    for p in range(free.rank, 0, -1):
        hits = []
        for add in free.p_sets(p):
            cand = seed.union(add)
            count = len(family.restrict(cand))
            if (over.shadow_contains(cand) and count
                    and count * b ** cand.cardinality >= floor):
                hits.append(cand)
        if hits:
            return min(hits, key=lambda s: s.labels())
    return seed if seed.bits else None


@SETTINGS
@given(subsplit_cases(), bases())
def test_maximal_violator_matches_brute_search(case, b):
    family, sub, over = case
    uni = family.universe
    for seed in [uni.empty] + [uni.set_of([x]) for strip in sub.strips
                               for x in strip.labels()]:
        assert maximal_violator(family, sub, over, seed, b) == \
            brute_max_violator(family, sub, over, seed, b)


@SETTINGS
@given(families(), st.integers(2, 4))
def test_find_sunflower_exact_agrees_with_oracle(family, k):
    cert = find_sunflower_exact(family, k)
    assert (cert is None) == sunflower_free_check_oracle(family, k)
    if cert is not None:
        assert cert.k == k
        assert verify_certificate(cert)
        assert all(petal in family for petal in cert.petals)
