"""Finite sets and set families over a fixed universe, on bit vectors.

A set over the universe {0, .., n-1} is a fixed-width bit vector, an int
mask.  A family is built from masks (``SetFamily(universe, masks, m)``, or
``SetFamily.of`` from label lists) and stores them as one frozenset; its
canonical order (lexicographically by sorted label tuple, empty set
first), which keeps serialization bitwise stable, and its ``GroundSet``
members are built on the first read that needs them.  Canonical sorts
use ``_canonical_key``, a string per mask that orders like the label
tuple.  The text and JSON parsers turn each row straight into a mask,
caching every label's bit for the parse.
Restriction counts |F[S]| are read off one subset map per family, built
by ``_subset_lookup`` on the first :meth:`SetFamily.subset_lookup` and
kept (above DEFAULT_SHADOW_BUDGET a stand-in ANDs member columns), or are
counted by size with no buckets (``_subset_counts``).
``SetFamily.shadow`` and ``SetFamily.restrict`` stay as the plain
references the tests check both kernels against.
Splits partition the universe into equal-size ordered strips, stored as
int masks too; subsplits select strips in order.

Everything here is immutable and pure, hence safe to share across threads
(filling a lazy cache is idempotent).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, groupby
from operator import and_, neg, or_, xor
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, UniverseMismatchError

# Default cap on generated subsets when materializing a shadow.
DEFAULT_SHADOW_BUDGET = 1 << 22

# How the immutable classes below fill their slots, looked up once.
_setattr = object.__setattr__


def _check_shadow_budget(need: int, budget: int) -> None:
    if need > budget:
        raise BudgetExceededError(
            f"shadow would generate {need} subsets (budget {budget})",
            needed=need, budget=budget)


def _subset_counts(masks: Sequence[int],
                   budget: int = DEFAULT_SHADOW_BUDGET,
                   ) -> dict[int, dict[int, int]]:
    """Restriction counts by size below the largest member size T:
    ``counts[s][S]`` is |F[S]| for every S of s labels, 0 < s < T,
    contained in some member, so the keys are 1, .., T - 1.

    The members of each size t are peeled of their lowest bit t - 1
    times, giving t columns of single bits (the last is what remains).
    The members' submasks are the ORs of the column subsets; each subset's
    pattern is one ``map(or_, ...)`` of a smaller subset's pattern and one
    column, kept as a list only while a larger pattern is built from it.
    Each size is counted by one Counter over its patterns, so no bucket
    list is built.  A set of size T inside a member is that member, of
    count 1, so size T is left to the caller, who decides it from the
    T-members with no count map.  Raises BudgetExceededError when
    sum(2**|U|) exceeds ``budget``, T's members included.
    """
    groups = [(t, list(group)) for t, group in
              groupby(sorted(masks, key=int.bit_count), int.bit_count)]
    _check_shadow_budget(sum(len(group) << t for t, group in groups), budget)
    top = groups[-1][0] if groups else 0
    by_size: dict[int, list] = {}
    for t, rest in groups:
        if not t:
            continue   # the empty member has no nonempty submask
        last = t if t < top else t - 1   # the largest size counted here
        columns = []
        for _ in range(t - 1):
            low = list(map(and_, rest, map(neg, rest)))
            columns.append(low)
            rest = list(map(xor, rest, low))
        columns.append(rest)
        # (size, pattern) of every column subset up to size last, the
        # empty one first
        patterns: list = [(0, None)]
        for column in columns:
            patterns += [(size + 1, column if pattern is None
                          else list(map(or_, pattern, column))
                          if size + 1 < last else map(or_, pattern, column))
                         for size, pattern in patterns if size < last]
        for size, pattern in patterns[1:]:
            by_size.setdefault(size, []).append(pattern)
    return {size: Counter(chain.from_iterable(patterns))
            for size, patterns in by_size.items()}


def _columns(masks: Iterable[int]) -> dict[int, int]:
    """Label bit -> its column, the bitset over member indices of the
    members containing the label, built in one pass over the members."""
    cols: dict[int, int] = {}
    for i, u in enumerate(masks):
        member = 1 << i
        while u:
            low = u & -u
            cols[low] = cols.get(low, 0) | member
            u ^= low
    return cols


class _ScannedSubsetMap:
    """Lazy stand-in for a subset map too large to build: the members
    containing s are the AND of the columns of s's labels, built on the
    first query."""

    __slots__ = ("_masks", "_cols")

    def __init__(self, masks: tuple[int, ...]):
        self._masks, self._cols = masks, None

    def _holders(self, s: int) -> int:
        if self._cols is None:
            self._cols = _columns(self._masks)
        held = (1 << len(self._masks)) - 1
        while s and held:
            low = s & -s
            held &= self._cols.get(low, 0)
            s ^= low
        return held

    def __contains__(self, s: int) -> bool:
        return self._holders(s) != 0

    def get(self, s: int, default=None):
        held, bucket = self._holders(s), []
        while held:
            low = held & -held
            bucket.append(self._masks[low.bit_length() - 1])
            held ^= low
        return bucket if bucket else default


def _subset_lookup(masks: Sequence[int]):
    """Read-only subset map of ``masks``: ``s in lookup`` is shadow
    membership and ``lookup.get(s)`` lists the members containing s in
    input order, so its length is the restriction count |F[S]|.

    When sum(2**|U|) fits DEFAULT_SHADOW_BUDGET this is a dict of every
    subset S of some member to its bucket, built in one pass over
    ``masks`` that enumerates each member's submasks (``s = (s - 1) & u``);
    the empty mask maps to all members and no members give an empty dict.
    Above the budget it is a :class:`_ScannedSubsetMap`, whose queries
    AND member columns.
    """
    if sum(1 << u.bit_count() for u in masks) > DEFAULT_SHADOW_BUDGET:
        return _ScannedSubsetMap(tuple(masks))
    buckets = {0: list(masks)} if masks else {}
    get = buckets.get
    for u in masks:
        s = u
        while s:
            bucket = get(s)
            if bucket is None:
                buckets[s] = [u]
            else:
                bucket.append(u)
            s = (s - 1) & u
    return buckets


def mask_labels(mask: int) -> tuple[int, ...]:
    """Ascending labels of the set bits of ``mask``."""
    if mask < 0:
        # a negative int has infinitely many set bits
        raise ValueError(f"mask must be nonnegative, got {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _canonical_key(mask: int) -> str:
    """Sort key that orders masks as their :func:`mask_labels` tuples
    do, from C string operations: the label-order bit string of ``mask``
    with '1' for a member and '2' for a non-member, "" for the empty set.
    The first label in which two sets differ decides, the set holding it
    first; a proper prefix (a shorter string) sorts first."""
    return bin(mask)[:1:-1].replace("0", "2") if mask else ""


def labels_mask(labels: Iterable[int]) -> int:
    mask = 0
    for x in labels:
        mask |= 1 << x
    return mask


def _strip_size(n: int, m: int, what: str = "strip count") -> int:
    """n/m, the strip size of a split of n labels into m strips.  ``what``
    names m in the ValueError raised when m is below 1 or does not divide
    n."""
    if m < 1:
        raise ValueError(f"{what} {m} must be at least 1")
    if n % m:
        raise ValueError(f"{what} {m} must divide universe size {n}")
    return n // m


def _mask_repr(mask: int) -> str:
    """``{0,1}``: the label set of ``mask``, as :class:`GroundSet` prints."""
    return "{%s}" % ",".join(str(x) for x in mask_labels(mask))


class _Immutable:
    """Base of the package's value classes: each sets its slots once, in
    ``__init__``, through ``object.__setattr__``; after that assignment
    and deletion raise AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _Record(_Immutable):
    """An immutable value class that, like a frozen dataclass over its
    fields, compares, hashes and prints as the tuple of its slots in
    order; ``__init__`` fills them through :meth:`_set`.  A slot named
    with a leading underscore caches a value derived from the others and
    takes no part in equality, hash or repr.  Being hand-written, it
    keeps ``dataclasses`` off every command's import path."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))


class Universe(_Record):
    """The ground set {0, .., n-1}."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("universe size must be positive")
        self._set(n)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def _check_labels(self, labels: Iterable[int]) -> list[int]:
        out = list(labels)
        for x in out:
            if not 0 <= x < self.n:
                raise ValueError(f"label {x} outside universe of size {self.n}")
        return out


class GroundSet(_Immutable):
    """An immutable subset of a universe, stored as a bit mask: an output
    view with no set algebra, as computations work on ``bits``.

    Ordering compares sorted label tuples, so ``sorted`` over ground sets
    yields the canonical lexicographic order used everywhere else.
    """

    __slots__ = ("universe", "bits", "cardinality")

    def __init__(self, universe: Universe, bits: int):
        if not 0 <= bits <= universe.full_mask:
            raise ValueError("bits outside universe width")
        _setattr(self, "universe", universe)
        _setattr(self, "bits", bits)
        _setattr(self, "cardinality", bits.bit_count())

    def labels(self) -> tuple[int, ...]:
        return mask_labels(self.bits)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroundSet)
                and self.universe.n == other.universe.n
                and self.bits == other.bits)

    def __hash__(self) -> int:
        return hash((self.universe.n, self.bits))

    def __lt__(self, other: "GroundSet") -> bool:
        return _canonical_key(self.bits) < _canonical_key(other.bits)

    def __le__(self, other: "GroundSet") -> bool:
        return self == other or self < other

    def __repr__(self) -> str:
        return _mask_repr(self.bits)


class SetFamily(_Immutable):
    """An immutable family of distinct sets with a cardinality bound.

    The family stores its members as one frozenset of int masks; the tuple
    in canonical label order (:meth:`masks`), the ``GroundSet`` view
    (``members``, iteration) and the subset lookup (:meth:`subset_lookup`)
    are built on first use and kept, idempotently, so thread-safe.  ``m``
    is the declared maximum member cardinality; it defaults to the largest
    actual member size and is preserved by serialization.  Count-only
    paths (spreadness and transversal counts, ``pad_universe``, the CLI's
    ``--core`` quotient, the greedy extraction) never sort.
    """

    __slots__ = ("universe", "m", "_masks", "_mask_set", "_members",
                 "_subsets")

    def __init__(self, universe: Universe, masks: Iterable[int],
                 m: int | None = None):
        masks = list(masks)
        mask_set = frozenset(masks)
        if len(mask_set) != len(masks) or masks and (
                min(masks) < 0 or max(masks).bit_length() > universe.n):
            # name the first bad member, in input order
            full = universe.full_mask
            seen: set[int] = set()
            for u in masks:
                if not 0 <= u <= full:
                    raise ValueError("bits outside universe width")
                if u in seen:
                    raise ValueError(f"duplicate member {_mask_repr(u)}")
                seen.add(u)
        actual = max(map(int.bit_count, mask_set), default=0)
        if m is None:
            m = actual
        elif m < 0:
            raise ValueError(f"cardinality bound must be nonnegative, got {m}")
        elif m < actual:
            raise ValueError(f"member of cardinality {actual} exceeds bound {m}")
        _setattr(self, "universe", universe)
        _setattr(self, "m", m)
        _setattr(self, "_masks", None)
        _setattr(self, "_mask_set", mask_set)
        _setattr(self, "_members", None)
        _setattr(self, "_subsets", None)

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]],
           m: int | None = None) -> "SetFamily":
        uni = Universe(n)
        return cls(uni, (labels_mask(uni._check_labels(s)) for s in sets),
                   m=m)

    def masks(self) -> tuple[int, ...]:
        """The masks in canonical label order, sorted on the first call."""
        if self._masks is None:
            _setattr(self, "_masks", tuple(
                sorted(self._mask_set, key=_canonical_key)))
        return self._masks

    @property
    def members(self) -> tuple[GroundSet, ...]:
        """The members as ground sets, in :meth:`masks` order, built on
        first use and kept with the family."""
        if self._members is None:
            uni = self.universe
            _setattr(self, "_members",
                     tuple(GroundSet(uni, u) for u in self.masks()))
        return self._members

    def __len__(self) -> int:
        return len(self._mask_set)

    def __iter__(self) -> Iterator[GroundSet]:
        return iter(self.members)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SetFamily)
                and self.universe.n == other.universe.n
                and self.m == other.m
                and self._mask_set == other._mask_set)

    def __hash__(self) -> int:
        return hash((self.universe.n, self.m, self._mask_set))

    def __repr__(self) -> str:
        return f"SetFamily(n={self.universe.n}, m={self.m}, size={len(self)})"

    def restrict(self, s: GroundSet) -> "SetFamily":
        """Members that contain ``s`` (the restriction of the family at s)."""
        if s.universe.n != self.universe.n:
            raise UniverseMismatchError("restriction set from a different universe")
        b = s.bits
        return SetFamily(self.universe,
                         [u for u in self._mask_set if u & b == b], m=self.m)

    def shadow(self, budget: int = DEFAULT_SHADOW_BUDGET) -> "SetFamily":
        """All subsets of members, the empty set and members included.

        Materializes up to ``sum(2**|U|)`` subsets; raises
        BudgetExceededError beyond ``budget`` (use :meth:`shadow_contains`
        for membership-only queries on larger families).
        """
        _check_shadow_budget(sum(1 << u.bit_count() for u in self._mask_set),
                             budget)
        out: set[int] = set()
        for u in self._mask_set:
            labels = mask_labels(u)
            for r in range(len(labels) + 1):
                for c in combinations(labels, r):
                    out.add(labels_mask(c))
        return SetFamily(self.universe, out, m=self.m)

    def subset_lookup(self):
        """:func:`_subset_lookup` of the members in :meth:`masks` order,
        built on the first call and kept with the (immutable) family in
        whichever form it has; callers must not mutate it."""
        if self._subsets is None:
            _setattr(self, "_subsets", _subset_lookup(self.masks()))
        return self._subsets

    def shadow_contains(self, t: GroundSet) -> bool:
        """True iff ``t`` is a subset of some member (lazy, no materialization)."""
        if t.universe.n != self.universe.n:
            raise UniverseMismatchError("query set from a different universe")
        b = t.bits
        return any(u & b == b for u in self._mask_set)

    def on_subsplit(self, sub: "Subsplit", p: int) -> "SetFamily":
        """Members of cardinality ``p`` lying on the subsplit.

        A set lies on a subsplit when it is contained in the union of the
        selected strips and meets each strip at most once.
        """
        if sub.split.universe.n != self.universe.n:
            raise UniverseMismatchError("subsplit over a different universe")
        if p < 0:
            raise ValueError("cardinality must be nonnegative")
        picked = [u for u in self._mask_set
                  if u.bit_count() == p and sub.carries_mask(u)]
        return SetFamily(self.universe, picked, m=self.m)

    def difference(self, other: "SetFamily") -> "SetFamily":
        if other.universe.n != self.universe.n:
            raise UniverseMismatchError("families over different universes")
        return SetFamily(self.universe, self._mask_set - other._mask_set,
                         m=self.m)

    def to_text(self) -> str:
        """The family in the text format (see Serialization below)."""
        lines = [f"universe {self.universe.n} maxcard {self.m}"]
        for u in self.masks():
            lines.append(" ".join(str(x) for x in mask_labels(u)) if u else "-")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {"n": self.universe.n, "m": self.m,
                "sets": [list(mask_labels(u)) for u in self.masks()]}


def _ordered_family(universe: Universe, masks: tuple[int, ...]) -> SetFamily:
    """The family of ``masks``, which the caller gives in canonical order:
    :meth:`SetFamily.masks` returns that tuple and never sorts."""
    family = SetFamily(universe, masks)
    _setattr(family, "_masks", masks)
    return family


class Split(_Record):
    """An ordered partition of the universe into equal-size strips, each
    an int mask."""

    __slots__ = ("universe", "strips")

    def __init__(self, universe: Universe, strips: tuple[int, ...]):
        if not strips:
            raise ValueError("split needs at least one strip")
        full = universe.full_mask
        d = strips[0].bit_count()
        union = 0
        for s in strips:
            if not 0 <= s <= full:
                raise ValueError("strip bits outside universe width")
            if s.bit_count() != d:
                raise ValueError("strips must have equal size")
            if union & s:
                raise ValueError("strips must be pairwise disjoint")
            union |= s
        if union != full:
            raise ValueError("strips must cover the universe")
        self._set(universe, strips)

    @classmethod
    def _unchecked(cls, universe: Universe, strips: tuple[int, ...]) -> "Split":
        """A split over strips the caller built as an equal partition of
        the universe: nothing is validated."""
        split = cls.__new__(cls)
        _setattr(split, "universe", universe)
        _setattr(split, "strips", strips)
        return split

    @classmethod
    def of(cls, n: int, strips: Iterable[Iterable[int]]) -> "Split":
        uni = Universe(n)
        return cls(uni, tuple(labels_mask(uni._check_labels(s))
                              for s in strips))

    @classmethod
    def contiguous(cls, n: int, m: int) -> "Split":
        """The split whose strips are consecutive blocks of size n/m."""
        d = _strip_size(n, m)
        return cls.of(n, (range(i * d, (i + 1) * d) for i in range(m)))

    @property
    def m(self) -> int:
        return len(self.strips)

    @property
    def strip_size(self) -> int:
        return self.strips[0].bit_count()

    def subsplit(self, indices: Iterable[int]) -> "Subsplit":
        return Subsplit(self, tuple(indices))

    def full_subsplit(self) -> "Subsplit":
        return Subsplit(self, tuple(range(self.m)))

    def strip_labels(self) -> list[list[int]]:
        return [list(mask_labels(s)) for s in self.strips]


class Subsplit(_Immutable):
    """An order-preserving selection of strips from a split; rank 0 is
    legal.  Equality, hash and repr read ``split`` and ``indices`` only:
    ``strip_masks`` and ``union_mask`` are derived from them."""

    __slots__ = ("split", "indices", "strip_masks", "union_mask")

    def __init__(self, split: Split, indices: tuple[int, ...]):
        prev = -1
        for i in indices:
            if not 0 <= i < split.m:
                raise ValueError(f"strip index {i} out of range")
            if i <= prev:
                raise ValueError("strip indices must be strictly increasing")
            prev = i
        masks = tuple(split.strips[i] for i in indices)
        _setattr(self, "split", split)
        _setattr(self, "indices", indices)
        _setattr(self, "strip_masks", masks)
        _setattr(self, "union_mask", sum(masks))  # disjoint strips

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.split, self.indices) == (other.split, other.indices)

    def __hash__(self) -> int:
        return hash((self.split, self.indices))

    def __repr__(self) -> str:
        return f"Subsplit(split={self.split!r}, indices={self.indices!r})"

    @property
    def rank(self) -> int:
        return len(self.indices)

    def carries_mask(self, s: int) -> bool:
        """True iff mask ``s`` is on this subsplit: within its union, at
        most one element per strip."""
        if s & ~self.union_mask:
            return False
        for bits in self.strip_masks:
            if (s & bits).bit_count() > 1:
                return False
        return True

    def minus(self, b: int) -> "Subsplit":
        """The subsplit of the strips disjoint from mask ``b`` (order
        preserved)."""
        return Subsplit(self.split, tuple(
            i for i, bits in zip(self.indices, self.strip_masks)
            if not bits & b))

    def p_set_masks(self, p: int) -> Iterator[int]:
        """All masks of p-sets on this subsplit, one element per chosen strip.

        For p = 0 yields the empty mask once, matching the convention that
        a rank-0 selection carries exactly the empty set.
        """
        if p < 0:
            raise ValueError("cardinality must be nonnegative")
        if p == 0:
            yield 0
            return
        if p > self.rank:
            return
        strip_bits = [[1 << x for x in mask_labels(s)]
                      for s in self.strip_masks]
        for which in combinations(range(self.rank), p):
            # the last chosen strip varies fastest: label-tuple order within
            # one strip selection
            masks = [0]
            for i in which:
                masks = [u | bit for u in masks for bit in strip_bits[i]]
            yield from masks


def pad_universe(family: SetFamily, n: int) -> SetFamily:
    """Re-embed a family into a larger universe of size ``n``."""
    if n < family.universe.n:
        raise ValueError("cannot shrink the universe")
    uni = Universe(n)
    return SetFamily(uni, family._mask_set, m=family.m)


# ---------------------------------------------------------------------------
# Serialization: SetFamily.to_text and to_json_obj write, the parsers below
# read.  Text format:
#
#   universe 6 maxcard 2
#   # optional comments
#   0 1
#   2 3
#   -          <- the empty set
#
# Output is canonical: labels ascending within a set, sets in lexicographic
# order, so parse(serialize(F)) == F bit for bit.

def _row_mask(labels: Iterable[int], bits: dict, n: int) -> int:
    """Mask of one JSON row of int labels.  ``bits`` caches each label's
    bit for one parse, filled on first sight after the range check."""
    mask = 0
    for x in labels:
        bit = bits.get(x)
        if bit is None:
            if not 0 <= x < n:
                raise ValueError(f"label {x} outside universe of size {n}")
            bit = bits[x] = 1 << x
        mask |= bit
    return mask


def family_from_text(text: str) -> SetFamily:
    """Parse the text format row by row, straight to masks, caching each
    label's bit for the parse.  A bad label raises ValueError at its row,
    a duplicate member once every row is read."""
    lines = iter(text.splitlines())
    for raw in lines:
        parts = raw.split("#", 1)[0].split()
        if parts:
            break
    else:
        raise ValueError("missing 'universe <n> maxcard <m>' header")
    if len(parts) != 4 or parts[0] != "universe" or parts[2] != "maxcard":
        raise ValueError(f"bad header line: {raw!r}")
    n, m = int(parts[1]), int(parts[3])
    uni = Universe(n)
    rows = (map(str.split, lines) if "#" not in text
            else (raw.split("#", 1)[0].split() for raw in lines))
    bits: dict[str, int] = {}
    get = bits.get
    masks = []
    for tokens in rows:
        if not tokens:
            continue
        mask = 0
        for x in tokens:
            bit = get(x)
            if bit is None:
                if tokens == ["-"]:   # the empty set
                    break
                label = int(x)
                if not 0 <= label < n:
                    raise ValueError(
                        f"label {label} outside universe of size {n}")
                bit = bits[x] = 1 << label
            mask |= bit
        masks.append(mask)
    return SetFamily(uni, masks, m=m)


def family_from_json_obj(obj: dict) -> SetFamily:
    try:
        n, m, sets = obj["n"], obj["m"], obj["sets"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad family object: {exc}") from None
    # type(x) is int also rejects bools, which JSON true/false parse to
    if not (type(sets) is list and all(type(s) is list for s in sets)
            and all(type(x) is int for x in (n, m, *chain(*sets)))):
        raise ValueError("bad family object: n, m and the labels must be "
                         "integers, sets a list of lists")
    uni = Universe(n)
    bits: dict[int, int] = {}
    return SetFamily(uni, [_row_mask(s, bits, n) for s in sets], m=m)
