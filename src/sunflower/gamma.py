"""Spreadness checks for set families.

A family F with declared cardinality bound m is *b-spread* when every
nonempty set S in its shadow satisfies

    |F restricted to S| * b^|S|  <  |F|.

All ratios are exact rationals: b is converted to a Fraction (floats embed
exactly), so verdicts never depend on floating-point rounding.  A witness
is a set achieving the maximum ratio; ties break toward the
lexicographically least label tuple.

Checks count |F[S]| for every candidate S, group the counts by |S| and
decide from the largest count of each size, in integer comparisons.  The
shadow check leaves out the largest member size, whose sets in the shadow
are its members, each of count 1, and decides it from those members.
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


def _tally_traces(counts: dict[int, dict[int, int]], masks: Iterable[int],
                  sub: Subsplit, step: int = 1) -> None:
    """Add ``step`` to ``counts[|S|][S]`` for every nonempty S on ``sub``
    (inside its union, at most one element per strip) contained in the
    trace of a member on the subsplit's union.  A trace on the subsplit,
    as one of at most one label always is, carries all its subsets, so
    only the subsets of the other traces are checked one by one."""
    union = sub.union_mask
    for u in masks:
        trace = u & union
        whole = not trace & (trace - 1) or sub.carries_mask(trace)
        s = trace
        while s:
            if whole or sub.carries_mask(s):
                by = counts.setdefault(s.bit_count(), {})
                by[s] = by.get(s, 0) + step
            s = (s - 1) & trace


def _carried_counts(masks: Sequence[int],
                    sub: Subsplit) -> dict[int, dict[int, int]]:
    """Restriction counts by size, ``counts[s][S]`` = |F[S]| for every
    nonempty S of s labels on ``sub`` contained in some member, counted
    over the members' traces on the subsplit's union.  The traces'
    sum(2**|trace|) is capped at DEFAULT_SHADOW_BUDGET
    (BudgetExceededError beyond)."""
    union = sub.union_mask
    _check_shadow_budget(sum(1 << (u & union).bit_count() for u in masks),
                         DEFAULT_SHADOW_BUDGET)
    counts: dict[int, dict[int, int]] = {}
    _tally_traces(counts, masks, sub)
    return counts


def check_gamma(family: SetFamily, b,
                budget: int = DEFAULT_SHADOW_BUDGET) -> GammaReport:
    """Check b-spreadness against every nonempty set in the family's shadow.

    Counts of the sizes below the largest member size T come from
    :func:`families._subset_counts`, grouped by size, whether or not the
    family keeps its member columns; ``budget`` caps the members'
    sum(2**|U|) (BudgetExceededError beyond).  Size T is decided from its
    members, with no count map: a T-set in the shadow is a T-member, of
    count 1, so its term is p^T against |F| * q^T for b = p/q, and when
    it ties a failing maximum the T-members join the witness candidates.
    It computes a sort key only to name a failing check's witness.
    """
    base = exact_base(b)
    if len(family) == 0:
        raise ValueError("spreadness is undefined for an empty family")
    masks = family._mask_set
    by_size = _subset_counts(masks, budget)
    report = _spread_report(family, base, by_size)
    if masks == {0}:
        return report   # no nonempty member, so no size T
    top = len(by_size) + 1   # the counted sizes are 1, .., T - 1
    num, den = base.numerator ** top, len(family) * base.denominator ** top
    lhs = num * report.ratio.denominator
    rhs = report.ratio.numerator * den
    if lhs < rhs or lhs == rhs and report.holds:
        return report
    ratio = Fraction(num, den)
    if ratio < 1:
        return GammaReport(True, None, ratio)
    tied = [u for u in masks if u.bit_count() == top]
    if lhs == rhs:
        tied.append(report.witness.bits)
    return GammaReport(False, GroundSet(family.universe,
                                        min(tied, key=_canonical_key)), ratio)


def _spread_holds(family: SetFamily, base, degree: int) -> bool:
    """``check_gamma(family, base).holds``, settled first by degree
    bounds.  With b = p/q, ``degree`` D the largest |F[{x}]| (the caller
    reads it off the member columns) and M the largest member size, every
    nonempty S has |F[S]| <= D (F[S] lies in F[{x}] for x in S), and a
    size-M set in the shadow is a member with no other superset, so
    |F[S]| = 1: D * p^(M-1) < |F| * q^(M-1) and p^M < |F| * q^M make
    every ratio |F[S]| * b^|S| / |F| below 1.  Conversely D * p >= |F| *
    q (a label of degree D violates) or p^M >= |F| * q^M (a largest
    member does) refutes it.  Only when neither decides, or no member is
    nonempty, does the full count run."""
    base = exact_base(base)
    top = max(map(int.bit_count, family._mask_set), default=0)
    if top:
        size = len(family)
        p, q = base.numerator, base.denominator
        if degree * p >= size * q or p ** top >= size * q ** top:
            return False
        if degree * p ** (top - 1) < size * q ** (top - 1):
            return True
    return check_gamma(family, base).holds


def check_gamma_on_subsplit(family: SetFamily, sub: Subsplit,
                            b) -> GammaReport:
    """Check spreadness with candidates confined to a subsplit.

    Candidates are the nonempty sets on ``sub`` (one element per chosen
    strip, any rank up to the subsplit's) that lie inside a member's
    trace on the subsplit's union.  With rank 0 there are none and the
    check holds vacuously.  Each size's map of the members' trace counts
    (:func:`_carried_counts`, capped at DEFAULT_SHADOW_BUDGET,
    BudgetExceededError beyond) is decided as it is, with no regrouping.
    """
    base = exact_base(b)
    if len(family) == 0:
        raise ValueError("spreadness is undefined for an empty family")
    if sub.split.universe.n != family.universe.n:
        raise UniverseMismatchError("subsplit over a different universe")
    return _spread_report(family, base, _carried_counts(family._mask_set, sub))


def _max_violator_masks(counts: dict[int, dict[int, int]], total: int,
                        p: int, q: int) -> int | None:
    """A maximal spreadness violator of a family of ``total`` members: a
    nonempty S among the counted sets with |F[S]| * b^|S| >= |F|, of
    maximum cardinality (lexicographically least on ties), so no counted
    one-strip extension keeps the bound.  ``counts[s][S]`` is |F[S]|, as
    :func:`_carried_counts` gives on a subsplit.  With b = p/q the bound
    reads |F[S]| >= ceil(|F| * q^s / p^s), so the sizes are walked from
    the largest down and the first one with a key meeting it gives the
    violator.  Returns None when no key does.
    """
    if total == 0:
        raise ValueError("spreadness is undefined for an empty family")
    for size in sorted(counts, reverse=True):
        floor = -(-total * q ** size // p ** size)
        hits = [s for s, count in counts[size].items() if count >= floor]
        if hits:
            return min(hits, key=_canonical_key)
    return None
