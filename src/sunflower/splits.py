"""Searching for splits that retain many members of a uniform family.

A member is *retained* by a split when it lies on it: one element in each
strip.  For a family of C(n, m)-many possible m-sets, averaging over all
unordered partitions into m strips of size d = n/m shows some split retains
at least d^m * |F| / C(n, m) members; the searches here find such a split
either exhaustively or by seeded random sampling.

Also provides transversal counting over a split: the number of ordered
tuples of j pairwise disjoint strips-sized sets, weighted by how many
members meet each of them once, has a closed product form that the brute
count validates.

One incidence kernel serves every search and the brute count: for a block
it gives the bitset over member indices (in the order it is handed the
members, any order for a count) of the members meeting the block in
exactly one element.  It is built from
one pass over the members, which gives each label its column, the bitset
of the members containing it; a block's bitset then folds the block's
columns (members seen once, members seen twice or more) with no member
rescanned.  A split's retained members are the AND of its strips'
bitsets, and a tuple's transversal weight is the popcount of the AND of
its blocks' bitsets.  The searches build a ``SetFamily`` only for the
split they return.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Collection, Iterator

from .errors import (BudgetExceededError, ContractViolationError,
                     TrialsExhaustedError)
from .families import (SetFamily, Split, Universe, _columns, _Record,
                       _strip_size, labels_mask)
from .rng import CounterRng

DEFAULT_SPLIT_ENUM_BUDGET = 1 << 20
DEFAULT_TRANSVERSAL_BUDGET = 1 << 22


def _uniform_cardinality(family: SetFamily) -> int:
    if len(family) == 0:
        raise ValueError("family must be nonempty")
    cards = {u.bit_count() for u in family._mask_set}
    if len(cards) != 1:
        raise ValueError(f"family must have uniform cardinality, got {sorted(cards)}")
    return cards.pop()


def count_splits(n: int, m: int) -> int:
    """Number of unordered partitions of an n-set into m blocks of size n/m."""
    d = _strip_size(n, m)
    return factorial(n) // (factorial(d) ** m * factorial(m))


def enumerate_splits(universe: Universe, m: int) -> Iterator[Split]:
    """All splits of the universe into m strips, each once.

    Canonical form: the smallest label not yet assigned starts the next
    strip, so strips come out ordered by minimum element and every
    unordered partition appears exactly once.  The last strip is whatever
    labels remain, so it is taken as is.

    The splits are drawn iteratively, from one stack of lazy block
    iterators, one per open strip, so there is no limit on the number of
    strips.  Each split is built valid by construction and is not
    re-validated.
    """
    d = _strip_size(universe.n, m)
    free = universe.full_mask
    if m == 1:
        yield Split._unchecked(universe, (free,))
        return
    new = Split._unchecked
    last = m - 2                # the open strip just before the rest
    stack = [_blocks(free, d)]  # one lazy block iterator per open strip
    strips: list[int] = []      # the block drawn at each level below the top
    while stack:
        if len(strips) == last:
            head = tuple(strips)
            for block in stack.pop():
                yield new(universe, (*head, block, free ^ block))
        else:
            block = next(stack[-1], 0)  # a block holds its anchor: never 0
            if block:
                strips.append(block)
                free ^= block
                stack.append(_blocks(free, d))
                continue
            stack.pop()
        if strips:
            free ^= strips.pop()


def _blocks(free: int, d: int) -> Iterator[int]:
    """The d-label blocks of ``free`` that hold its smallest label, drawn
    lazily in ``combinations`` order of the other labels; the anchor
    alone when d = 1, with no other label listed."""
    anchor = free & -free
    if d == 1:
        return iter((anchor,))
    rest_labels = []
    x = free ^ anchor
    while x:
        low = x & -x
        rest_labels.append(low)
        x ^= low
    return (anchor + sum(extra) for extra in combinations(rest_labels, d - 1))


class _Incidence(dict):
    """Block mask -> the bitset over member indices of the members meeting
    the block in exactly one element, computed on first lookup;
    ``everyone`` is the bitset of all members.

    ``cols`` maps a label's bit to its column, the bitset of the members
    containing the label (:func:`families._columns`).  A block's
    bitset folds its columns: ``ones`` collects the members seen in some
    column, ``twos`` those seen in two or more, and ``ones & ~twos`` meet
    the block once.  That is one step per label of the block, whatever
    the family size; a label no member uses has an empty column.
    """

    def __init__(self, masks: Collection[int]):
        super().__init__()
        self.cols = _columns(masks)
        self.everyone = (1 << len(masks)) - 1

    def __missing__(self, block: int) -> int:
        cols = self.cols
        ones = twos = 0
        x = block
        while x:
            low = x & -x
            c = cols.get(low, 0)
            twos |= ones & c
            ones |= c
            x ^= low
        bits = self[block] = ones & ~twos
        return bits

    def retained(self, blocks) -> int:
        """How many members meet every block exactly once."""
        kept = self.everyone
        for b in blocks:
            kept &= self[b]
        return kept.bit_count()


def retention_bound(family: SetFamily, m: int) -> Fraction:
    """The averaging floor d^m * |F| / C(n, m) for splits into m strips."""
    n = family.universe.n
    d = _strip_size(n, m)
    return Fraction(d ** m * len(family), comb(n, m))


class SplitSearchResult(_Record):
    """A split, the members it retains, and the averaging floor."""

    __slots__ = ("split", "retained", "bound")

    def __init__(self, split: Split, retained: SetFamily, bound: Fraction):
        self._set(split, retained, bound)


def find_good_split(family: SetFamily, mode: str = "exhaustive",
                    trials: int = 1000, seed: int = 0,
                    enum_budget: int = DEFAULT_SPLIT_ENUM_BUDGET) -> SplitSearchResult:
    """Find a split retaining at least the averaging floor of members.

    ``exhaustive`` enumerates every split and returns the one retaining the
    most members (first in enumeration order on ties) — always at least the
    floor.  ``random`` samples splits uniformly until one meets the floor,
    raising TrialsExhaustedError (carrying the best result seen) if none of
    ``trials`` samples does; ``trials`` below 1 is a ValueError.

    Splits are scored by the incidence kernel: on an m-uniform family, a
    member meeting each of the m strips exactly once is exactly a member
    lying on the split.  Only the returned split (or the best one carried by
    TrialsExhaustedError) is materialized, as the members lying on its full
    subsplit (:meth:`SetFamily.on_subsplit`).
    """
    m = _uniform_cardinality(family)
    n = family.universe.n
    d = _strip_size(n, m, "member cardinality")
    bound = retention_bound(family, m)
    meet = _Incidence(family.masks())

    def materialize(split: Split, count: int) -> SplitSearchResult:
        kept = family.on_subsplit(split.full_subsplit(), split.m)
        if len(kept) != count:
            raise ContractViolationError(
                f"split retains {len(kept)} members, the kernel counted {count}")
        return SplitSearchResult(split, kept, bound)

    if mode == "exhaustive":
        total = count_splits(n, m)
        if total > enum_budget:
            raise BudgetExceededError(
                f"{total} splits exceed enumeration budget {enum_budget}",
                needed=total, budget=enum_budget)
        best, best_count = None, -1
        for split in enumerate_splits(family.universe, m):
            count = meet.retained(split.strips)
            if count > best_count:
                best, best_count = split, count
        result = materialize(best, best_count)
        if len(result.retained) < bound:
            raise ContractViolationError(
                "no split retains the averaging floor of members")
        return result
    if mode == "random":
        if trials < 1:
            raise ValueError("trials must be at least 1")
        rng = CounterRng(seed)
        labels = list(range(n))
        best_count = -1
        for _ in range(trials):
            perm = labels[:]
            rng.shuffle(perm)
            blocks = sorted(sorted(perm[i * d:(i + 1) * d]) for i in range(m))
            count = meet.retained(labels_mask(b) for b in blocks)
            if count * bound.denominator >= bound.numerator:
                return materialize(Split.of(n, blocks), count)
            if count > best_count:
                best, best_count = blocks, count
        raise TrialsExhaustedError(
            f"no split met the floor {bound} in {trials} random trials",
            best=materialize(Split.of(n, best), best_count))
    raise ValueError(f"unknown mode {mode!r}")


def _disjoint_tuple_count(n: int, d: int, j: int) -> int:
    count = 1
    for i in range(j):
        count *= comb(n - d * i, d)
    return count


def transversal_count_brute(family: SetFamily, j: int,
                            budget: int = DEFAULT_TRANSVERSAL_BUDGET) -> int:
    """Sum over ordered tuples of j pairwise disjoint d-sets of the number
    of members meeting every set in the tuple exactly once.

    d is n/m for the family's uniform member cardinality m.  Pure
    enumeration; the closed form :func:`transversal_formula` must match it.
    An empty family counts 0 for every j in [0, declared m].

    Every ordered tuple is still visited, so the count stays an independent
    check of the closed form.  The d-subsets are tabled once with their
    incidence bitsets; each depth walks the blocks disjoint from those
    picked, carrying the AND of the picked blocks' bitsets, and the last
    depth adds its popcounts in one loop.  With j = 0 every member counts.
    """
    if len(family) == 0:
        if not 0 <= j <= family.m:
            raise ValueError(f"tuple length {j} must lie in [0, {family.m}]")
        return 0
    m = _uniform_cardinality(family)
    if m == 0:
        if j != 0:
            raise ValueError("tuple length must be 0 for cardinality-0 members")
        return len(family)
    n = family.universe.n
    d = _strip_size(n, m, "member cardinality")
    if not 0 <= j <= m:
        raise ValueError(f"tuple length {j} must lie in [0, {m}]")
    tuples = _disjoint_tuple_count(n, d, j)
    if tuples > budget:
        raise BudgetExceededError(
            f"{tuples} disjoint tuples exceed budget {budget}",
            needed=tuples, budget=budget)
    if j == 0:
        return len(family)
    meet = _Incidence(family._mask_set)
    table = [(b, meet[b]) for b in map(labels_mask, combinations(range(n), d))]
    return _transversal_walk(table, j, 0, meet.everyone)


def _transversal_walk(table: list[tuple[int, int]], j: int, used: int,
                      kept: int) -> int:
    """Sum over ordered j-tuples (j >= 1) of pairwise disjoint blocks of
    ``table`` missing ``used`` of the popcount of ``kept`` ANDed with the
    blocks' bitsets.  A module-level function, so a count leaves no
    reference cycle holding the table."""
    total = 0
    if j == 1:
        for b, bits in table:
            if not b & used:
                total += (kept & bits).bit_count()
        return total
    for b, bits in table:
        if not b & used:
            total += _transversal_walk(table, j - 1, used | b, kept & bits)
    return total


def transversal_formula(family: SetFamily, j: int) -> Fraction:
    """Closed form for :func:`transversal_count_brute`:

        d^j * C(n - d*j, m - j) * (|F| / C(n, m)) * prod_{i<j} C(n - d*i, d)

    Exact over the rationals.  Requires d >= 2 and a nonempty family; the
    brute count needs neither but the product form is stated for that range.
    """
    m = _uniform_cardinality(family)
    n = family.universe.n
    d = _strip_size(n, m, "member cardinality")
    if not 0 <= j <= m:
        raise ValueError(f"tuple length {j} must lie in [0, {m}]")
    if d < 2:
        raise ValueError("closed form requires strip size at least 2")
    density = Fraction(len(family), comb(n, m))
    return (Fraction(d ** j * comb(n - d * j, m - j))
            * density * _disjoint_tuple_count(n, d, j))
