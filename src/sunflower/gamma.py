"""Spreadness checks for set families.

A family F with declared cardinality bound m is *b-spread* when every
nonempty set S in its shadow satisfies

    |F restricted to S| * b^|S|  <  |F|.

All ratios are exact rationals: b is converted to a Fraction (floats embed
exactly), so verdicts never depend on floating-point rounding.  A witness
is a set achieving the maximum ratio; ties break toward the
lexicographically least label tuple.

Checks count |F[S]| for every candidate S, group the counts by |S| and
decide from the largest count of each size, in integer comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import UniverseMismatchError
from .families import (DEFAULT_SHADOW_BUDGET, GroundSet, SetFamily, Subsplit,
                       _canonical_key, _check_shadow_budget, _Record,
                       _subset_counts)


def exact_base(b) -> Fraction:
    """Convert a spreadness base to an exact Fraction; requires b > 1."""
    frac = Fraction(b)
    if frac <= 1:
        raise ValueError(f"spreadness base must exceed 1, got {b}")
    return frac


class GammaReport(_Record):
    """Outcome of a spreadness check.

    ``ratio`` is the maximum of |F[S]| * b^|S| / |F| over the candidate
    sets (0 when there are none); ``witness`` is the maximizer when the
    check fails, None when it holds.
    """

    __slots__ = ("holds", "witness", "ratio")

    def __init__(self, holds: bool, witness: GroundSet | None,
                 ratio: Fraction):
        self._set(holds, witness, ratio)

    def to_json_obj(self) -> dict:
        return {
            "holds": self.holds,
            "witness": None if self.witness is None else list(self.witness.labels()),
            "ratio": [self.ratio.numerator, self.ratio.denominator],
        }


def _spread_report(family: SetFamily, base: Fraction,
                   by_size: dict[int, dict[int, int]]) -> GammaReport:
    """The spreadness verdict from restriction counts grouped by size
    (``by_size[s][S]`` = |F[S]| > 0 for nonempty S of s labels): the max
    of |F[S]| * b^|S| / |F|, witnessed by the maximizer with the least
    label tuple when it reaches 1.

    Only the largest count of each size can reach the max, so the sizes'
    maxima are compared in integers: with b = p/q, size s beats the best
    size B so far when c_s * p^s * q^|B| > c_B * p^|B| * q^s.  The witness
    is looked for only when the check fails, among the sets holding the
    largest count of every size tied at the max.
    """
    p, q = base.numerator, base.denominator
    best_num, best_den = 0, 1   # c_B * p^|B| and q^|B|
    tied: list[tuple[dict[int, int], int]] = []
    for size, counts in by_size.items():
        top = max(counts.values())
        num, den = top * p ** size, q ** size
        lhs, rhs = num * best_den, best_num * den
        if lhs > rhs:
            best_num, best_den = num, den
            tied = [(counts, top)]
        elif lhs == rhs:
            tied.append((counts, top))
    best = Fraction(best_num, best_den * len(family))
    if best < 1:
        return GammaReport(True, None, best)
    witness = min((s for counts, top in tied
                   for s, count in counts.items() if count == top),
                  key=_canonical_key)
    return GammaReport(False, GroundSet(family.universe, witness), best)


def _tally_traces(counts: dict[int, int], masks: Iterable[int],
                  sub: Subsplit, step: int = 1) -> None:
    """Add ``step`` to ``counts[S]`` for every nonempty S on ``sub`` (inside
    its union, at most one element per strip) contained in the trace of a
    member on the subsplit's union.  A trace on the subsplit, as one of
    at most one label always is, carries all its subsets, so only the
    subsets of the other traces are checked one by one."""
    union = sub.union_mask
    for u in masks:
        trace = u & union
        whole = not trace & (trace - 1) or sub.carries_mask(trace)
        s = trace
        while s:
            if whole or sub.carries_mask(s):
                counts[s] = counts.get(s, 0) + step
            s = (s - 1) & trace


def _carried_counts(masks: Sequence[int], sub: Subsplit) -> dict[int, int]:
    """|F[S]| for every nonempty S on ``sub`` contained in some member,
    counted over the members' traces on the subsplit's union.  The
    traces' sum(2**|trace|) is capped at DEFAULT_SHADOW_BUDGET
    (BudgetExceededError beyond), and summed only when len(masks) *
    2**|union| is over the cap: no trace outgrows the union, so that
    product bounds the sum."""
    union = sub.union_mask
    if len(masks) << union.bit_count() > DEFAULT_SHADOW_BUDGET:
        _check_shadow_budget(sum(1 << (u & union).bit_count() for u in masks),
                             DEFAULT_SHADOW_BUDGET)
    counts: dict[int, int] = {}
    _tally_traces(counts, masks, sub)
    return counts


def check_gamma(family: SetFamily, b,
                budget: int = DEFAULT_SHADOW_BUDGET) -> GammaReport:
    """Check b-spreadness against every nonempty set in the family's shadow.

    Counts come from :func:`families._subset_counts`, grouped by size,
    whether or not the family keeps a subset lookup; ``budget`` caps the
    members' sum(2**|U|) (BudgetExceededError beyond).  It computes a
    sort key only to name a failing check's witness.
    """
    base = exact_base(b)
    if len(family) == 0:
        raise ValueError("spreadness is undefined for an empty family")
    return _spread_report(family, base,
                          _subset_counts(family._mask_set, budget))


def _spread_holds(family: SetFamily, base) -> bool:
    """``check_gamma(family, base).holds``, settled first by degree
    bounds read off the family's subset lookup.  With b = p/q, D the
    largest |F[{x}]| and M the largest member size, every nonempty S
    has |F[S]| <= D (F[S] lies in F[{x}] for x in S), and a size-M set
    in the shadow is a member with no other superset, so |F[S]| = 1:
    D * p^(M-1) < |F| * q^(M-1) and p^M < |F| * q^M make every ratio
    |F[S]| * b^|S| / |F| below 1.  Conversely D * p >= |F| * q (a label
    of degree D violates) or p^M >= |F| * q^M (a largest member does)
    refutes it.  Only when neither decides, or no member is nonempty,
    does the full count run."""
    base = exact_base(base)
    top = max(map(int.bit_count, family._mask_set), default=0)
    if top:
        lookup, size = family.subset_lookup(), len(family)
        p, q = base.numerator, base.denominator
        degree = max(len(lookup.get(1 << x, ()))
                     for x in range(family.universe.n))
        if degree * p >= size * q or p ** top >= size * q ** top:
            return False
        if degree * p ** (top - 1) < size * q ** (top - 1):
            return True
    return check_gamma(family, base).holds


def check_gamma_on_subsplit(family: SetFamily, sub: Subsplit,
                            over: SetFamily, b) -> GammaReport:
    """Check spreadness with candidates confined to a subsplit.

    Candidates are the nonempty sets on ``sub`` (one element per chosen
    strip, any rank up to the subsplit's) that are subsets of some member
    of ``over``.  With rank 0 or an empty ``over`` there are no candidates
    and the check holds vacuously.  Counting builds the count map of the
    members' traces on the subsplit (:func:`_carried_counts`), capped at
    DEFAULT_SHADOW_BUDGET entries (BudgetExceededError beyond), and keeps
    the candidates, grouped by size.
    """
    base = exact_base(b)
    if len(family) == 0:
        raise ValueError("spreadness is undefined for an empty family")
    if sub.split.universe.n != family.universe.n:
        raise UniverseMismatchError("subsplit over a different universe")
    if over.universe.n != family.universe.n:
        raise UniverseMismatchError("range family over a different universe")
    shadow = over.subset_lookup()
    by_size: dict[int, dict[int, int]] = {}
    for s, count in _carried_counts(family._mask_set, sub).items():
        if s in shadow:
            by_size.setdefault(s.bit_count(), {})[s] = count
    return _spread_report(family, base, by_size)


def _max_violator_masks(counts: dict[int, int], total: int, shadow, p: int,
                        q: int) -> int | None:
    """A maximal spreadness violator of a family of ``total`` members: a
    nonempty key S of ``counts`` (S -> |F[S]|, as :func:`_carried_counts`
    gives on a subsplit) in ``shadow`` (the range family's subset lookup)
    with |F[S]| * b^|S| >= |F|, of maximum cardinality (lexicographically
    least on ties), so no in-range one-strip extension keeps the bound.
    Returns None when no key qualifies.  With b = p/q the bound reads
    |F[S]| >= |F| * q^|S| / p^|S|, whose integer ceiling is computed once
    per size.
    """
    if total == 0:
        raise ValueError("spreadness is undefined for an empty family")
    need: dict[int, int] = {}
    best_mask, best_size = None, 0
    for s, count in counts.items():
        size = s.bit_count()
        if size < best_size or s not in shadow:
            continue
        floor = need.get(size)
        if floor is None:
            floor = need[size] = -(-total * q ** size // p ** size)
        if count < floor:
            continue
        if size > best_size or _canonical_key(s) < _canonical_key(best_mask):
            best_mask, best_size = s, size
    return best_mask
