"""Base-set extraction engine and its recursive driver.

The engine's one input is a :class:`ComponentCollection`: a family of
m-sets lying on an m-split, organized as components each indexed by a
rank-m' subsplit, with a family of anchor m'-sets ("bases") covering
every member's projection.  It scans ranks r = m' down to 0, repeatedly
carving out elementary parts:

  * at r = m', whole buckets F''[B] whose size meets the threshold f(m'),
    the groups of members sharing a projection onto the component;
  * at r < m', buckets cleaned to spreadness on the strips off B by
    repeated maximal-violator removal, with an epsilon-floor at r = 0.
    A bucket is again a projection group, onto the r strips B lies on,
    as every member is an on-split m-set;

and returns at the first rank whose extracted union reaches a 3^(r-m'-1)
fraction of the input.  The working family shrinks monotonically across
ranks; per-rank accumulations reset.  The driver iterates the engine,
feeding each output back in as the collection regrouped by it (parts
merged by the strips of their base sets, anchored on those base sets),
until the rank repeats or hits zero.

Every size floor, the threshold f(x) = k^-5 * eps^2m * (c^h * k * ln k)^-x
* famSize for x = 0..m and the rank-0 floor eps^m * famSize, is turned
once per call into an integer table (:class:`Threshold`), so the
extraction decisions, the postconditions and the audit each compare one
integer count with one integer floor and can never disagree.

Inside the engine, strips and base sets are int masks, and components and
part members are tuples of int masks in canonical label order, the order
:meth:`SetFamily.masks` stores; ``SetFamily(split.universe, part.T)``
converts one.  SetFamily appears only at the engine's edges: its inputs
and its output families.  The driver sorts its input by string key once;
later member lists are that order filtered by membership.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from typing import Iterable, Iterator

from .errors import (BudgetExceededError, ContractViolationError,
                     UniverseMismatchError)
from .families import (SetFamily, Split, Subsplit, _canonical_key, _holders,
                       _in_shadow, _kept_columns, _mask_repr, _ordered_family,
                       _Record, _setattr, mask_labels)
from .gamma import (_carried_counts, _max_violator_masks, _spread_holds,
                    _tally_traces, check_gamma_on_subsplit, exact_base)


class Constants(_Record):
    """Numeric regime for the engine.

    mode "surrogate" takes h and c as given; mode "canonical" marks the
    canonical schedule h = exp(1/epsilon), c = exp(h) built by
    :func:`canonical_constants` (feasible only for epsilon above roughly
    0.153, where exp(h) still fits in a float).  b is always c * k.
    famSize is the reference cardinality all thresholds scale with; the
    driver fills it with the input family's size when unset.
    """

    __slots__ = ("epsilon", "h", "c", "k", "m", "fam_size", "mode")

    def __init__(self, epsilon: float, h: float, c: float, k: int, m: int,
                 fam_size: int | None = None, mode: str = "surrogate"):
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 1 < h < math.inf:
            raise ValueError("h must be finite and exceed 1")
        if not 1 < c < math.inf:
            raise ValueError("c must be finite and exceed 1")
        if type(k) is not int or k < 2:
            raise ValueError("k must be an int of at least 2")
        if type(m) is not int or m < 1:
            raise ValueError("m must be a positive int")
        if fam_size is not None and not (type(fam_size) is int
                                         and fam_size > 0):
            raise ValueError("famSize must be a positive int")
        if mode not in ("surrogate", "canonical"):
            raise ValueError(f"unknown mode {mode!r}")
        self._set(epsilon, h, c, k, m, fam_size, mode)

    @property
    def b(self) -> float:
        return self.c * self.k

    def with_fam_size(self, fam_size: int) -> "Constants":
        return Constants(self.epsilon, self.h, self.c, self.k, self.m,
                         fam_size, self.mode)

    def _need_fam_size(self) -> None:
        if self.fam_size is None:
            raise ValueError("famSize is unset")

    def to_json_obj(self) -> dict:
        return {"mode": self.mode, "epsilon": self.epsilon, "h": self.h,
                "c": self.c, "k": self.k, "m": self.m,
                "famSize": self.fam_size}


def canonical_constants(epsilon: float, k: int, m: int,
                        fam_size: int | None = None) -> Constants:
    """Constants on the canonical schedule h = exp(1/eps), c = exp(h)."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    try:
        h = math.exp(1.0 / epsilon)
        c = math.exp(h)
        # math.exp raises on a finite argument that overflows; 1.0 / epsilon
        # itself is inf, which math.exp returns, for a subnormal epsilon
        if math.isinf(c):
            raise OverflowError
    except OverflowError:
        raise ValueError(
            f"canonical constants overflow at epsilon={epsilon}; "
            "the schedule is feasible only for epsilon above ~0.153"
        ) from None
    return Constants(epsilon, h, c, k, m, fam_size, mode="canonical")


def constants_from_dict(obj: dict) -> Constants:
    """Parse the constants file format {mode, epsilon, h, c, k, m[, famSize]}.

    ``k``, ``m`` and ``famSize`` must be JSON integers and ``epsilon``,
    ``h`` and ``c`` finite JSON numbers: anything else, a missing key or
    a non-object raises ValueError("bad constants object: ...").
    """
    if type(obj) is not dict:
        raise ValueError("bad constants object: not a JSON object")
    mode = obj.get("mode", "surrogate")
    if mode == "canonical" and ("h" in obj or "c" in obj):
        raise ValueError("mode 'canonical' derives h and c from epsilon; "
                         "remove the explicit values")
    if mode not in ("surrogate", "canonical"):
        raise ValueError(f"unknown mode {mode!r}")
    reals = ("epsilon", "h", "c") if mode == "surrogate" else ("epsilon",)
    for key in reals + ("k", "m", "famSize"):
        x = obj.get(key)
        # type(x) is int also rejects bools, which JSON true/false parse to
        if not (type(x) is int or x is None and key == "famSize"
                or type(x) is float and key in reals and math.isfinite(x)):
            kind = "a finite number" if key in reals else "an integer"
            raise ValueError(f"bad constants object: {key} must be {kind}, "
                             f"got {x!r}")
    try:
        epsilon, *h_c = (float(obj[key]) for key in reals)
    except OverflowError as exc:
        raise ValueError(f"bad constants object: {exc}") from None
    k, m, fam_size = obj["k"], obj["m"], obj.get("famSize")
    if mode == "canonical":
        return canonical_constants(epsilon, k, m, fam_size)
    return Constants(epsilon, *h_c, k, m, fam_size, mode="surrogate")


def _float_floor(direct, log: float) -> float:
    """``direct()``, or exp(log) where that overflows, or inf where both do."""
    try:
        return direct()
    except OverflowError:
        pass
    try:
        return math.exp(log)
    except OverflowError:
        return math.inf


def _least_count(floor: float) -> int | float:
    """The least count >= 1 that is >= ``floor``; inf when none is."""
    return math.inf if math.isinf(floor) else max(1, math.ceil(floor))


class Threshold:
    """The size floors of one engine call, as least accepted counts.

    ``value(x)`` is the float f(x) = k^-5 * eps^2m * (c^h k ln k)^-x *
    famSize, strictly decreasing in x since c, h > 1 and k >= 2 make the
    base exceed 1 (exp of its log where the product overflows, inf past
    the float range).  ``need[x]`` for x = 0..m and ``eps_need`` are the
    least counts >= 1 meeting value(x) and eps^m * famSize, inf when the
    floor is: filled once, so every decision is one integer comparison.
    """

    __slots__ = ("cfg", "need", "eps_need")

    def __init__(self, cfg: Constants):
        cfg._need_fam_size()
        self.cfg = cfg
        self.need = tuple(_least_count(self.value(x))
                          for x in range(cfg.m + 1))
        self.eps_need = _least_count(_float_floor(
            lambda: cfg.epsilon ** cfg.m * cfg.fam_size,
            cfg.m * math.log(cfg.epsilon) + math.log(cfg.fam_size)))

    def value(self, x: int) -> float:
        if x < 0:
            raise ValueError("argument must be nonnegative")
        cfg, log_k = self.cfg, math.log(self.cfg.k)
        # f(0) has no base factor, so no overflow of c ** h may move it
        return _float_floor(
            lambda: (cfg.k ** -5 * cfg.epsilon ** (2 * cfg.m)
                     * ((cfg.c ** cfg.h * cfg.k * log_k) ** -x if x else 1.0)
                     * cfg.fam_size),
            -5 * log_k + 2 * cfg.m * math.log(cfg.epsilon)
            + math.log(cfg.fam_size)
            - x * (cfg.h * math.log(cfg.c) + log_k + math.log(log_k)))


class ElementaryPart(_Record):
    """One extracted piece: base set B, origin component key, members T.

    ``B`` is the base set's mask and ``T`` a tuple of member masks in
    canonical label order; ``key`` is the strip-index tuple of the
    component's subsplit; ``variant`` is "ii" for threshold buckets taken
    at r = m' and "i" for spreadness-cleaned buckets taken at r < m'.
    """

    __slots__ = ("B", "key", "T", "variant")

    def __init__(self, B: int, key: tuple[int, ...], T: tuple[int, ...],
                 variant: str):
        self._set(B, key, T, variant)

    @property
    def r(self) -> int:
        return self.B.bit_count()


def _check_rank(rank: int, m: int) -> None:
    if not 1 <= rank <= m:
        raise ValueError(f"rank {rank} out of range [1, {m}]")


def _canonical_components(split: Split,
                          components: dict[tuple[int, ...], Iterable[int]],
                          ) -> tuple[int, dict[tuple[int, ...], tuple[int, ...]]]:
    """The common rank of ``components`` and the components in key order,
    each a tuple of member masks in canonical order; raises ValueError on
    mixed or out-of-range ranks, bad keys and empty components."""
    ranks = {len(k) for k in components}
    if not components or len(ranks) != 1:
        raise ValueError("components must share one positive rank")
    rank = ranks.pop()
    _check_rank(rank, split.m)
    canonical: dict[tuple[int, ...], tuple[int, ...]] = {}
    for key in sorted(components):
        if len(set(key)) != len(key) or list(key) != sorted(key) \
                or not all(0 <= i < split.m for i in key):
            raise ValueError(f"bad component key {key}")
        masks = tuple(sorted(components[key], key=_canonical_key))
        if not masks:
            raise ValueError(f"component {key} is empty")
        canonical[key] = masks
    return rank, canonical


def _check_on_split(sub: Subsplit, rank: int, masks: Iterable[int]) -> None:
    """Raise ValueError naming the first mask that is not an on-split
    ``rank``-set: ``rank`` labels on ``sub``, at most one per strip."""
    for u in masks:
        if u.bit_count() != rank or not sub.carries_mask(u):
            raise ValueError(f"{_mask_repr(u)} is not an on-split {rank}-set")


class ComponentCollection:
    """The engine's whole input: a family partitioned into components
    indexed by rank-r subsplits, with its anchor bases.

    Each component is a tuple of member masks in canonical label order.
    Members are distinct on-split m-sets; the key records which strips
    anchor the component.  ``bases`` is a family of on-split r-sets in
    the members' shadow that holds every member's projection onto its
    key strips.  The constructors that take outside input (``__init__``,
    :meth:`initial` and :meth:`derive`) check all of this; :meth:`regroup`
    builds the next collection from an engine output, which the engine's
    postconditions have checked.  ``_family`` holds every member: the
    members themselves, or, after :meth:`regroup`, the family they were
    drawn from, whose canonical order :meth:`regroup` filters.  The
    engine reads its buckets off the components, as projection groups.
    """

    __slots__ = ("split", "rank", "components", "bases", "_family")

    def __init__(self, split: Split,
                 components: dict[tuple[int, ...], Iterable[int]],
                 bases: SetFamily):
        rank, canonical = _canonical_components(split, components)
        if bases.universe.n != split.universe.n:
            raise UniverseMismatchError("bases over a different universe")
        n = split.universe.n
        members = [u for masks in canonical.values() for u in masks]
        for u in members:
            if u >> n:  # also every negative mask
                raise ValueError(f"member mask {u} has bits outside "
                                 f"the universe of size {n}")
        full = split.full_subsplit()
        _check_on_split(full, split.m, members)
        _check_on_split(full, rank, bases.masks())
        # the family rejects a member listed twice
        family = SetFamily(split.universe, members, m=split.m)
        for u in bases.masks():
            if not _in_shadow(family, u):
                raise ValueError(
                    f"base {_mask_repr(u)} is not in the family's shadow")
        base_masks = set(bases.masks())
        for key, comp in canonical.items():
            union = split.subsplit(key).union_mask
            for u in comp:
                if u & union not in base_masks:
                    raise ValueError(
                        f"member projection {mask_labels(u & union)} of "
                        f"component {key} is not an anchor base")
        self.split, self.rank, self.components = split, rank, canonical
        self.bases, self._family = bases, family

    @classmethod
    def _unchecked(cls, split: Split, rank: int,
                   components: dict[tuple[int, ...], tuple[int, ...]],
                   bases: SetFamily, family: SetFamily,
                   ) -> "ComponentCollection":
        """A collection over inputs the caller has checked, with its
        components keyed and ordered: nothing is validated or sorted."""
        coll = cls.__new__(cls)
        coll.split, coll.rank, coll.components = split, rank, components
        coll.bases, coll._family = bases, family
        return coll

    @classmethod
    def initial(cls, family: SetFamily, split: Split) -> "ComponentCollection":
        """The trivial collection: one full-rank component holding the
        whole family, which anchors itself.  Each member is checked once,
        as an on-split m-set; it is then its own projection and in the
        shadow, and the family's masks are distinct, in the universe and
        canonical already."""
        if family.universe.n != split.universe.n:
            raise UniverseMismatchError("family over a different universe")
        key, masks = tuple(range(split.m)), family.masks()
        if not masks:
            raise ValueError(f"component {key} is empty")
        _check_on_split(split.full_subsplit(), split.m, masks)
        return cls._unchecked(split, split.m, {key: masks}, family, family)

    def regroup(self, output: "BaseSetsOutput") -> "ComponentCollection":
        """The collection for the next engine call: the parts of
        ``output``, which :func:`base_sets` returned on this collection,
        merged by the strips their base sets occupy and anchored on its
        base sets, over the same family.  Nothing is checked, as the
        engine's postconditions have been, and nothing is sorted: each
        component is the family's canonical order filtered by membership."""
        split, masks = self.split, self._family.masks()
        strips = split.strips
        grouped: dict[tuple[int, ...], set[int]] = {}
        for part in output.parts:
            # a base lies on its component's key strips
            key = tuple(i for i in part.key if strips[i] & part.B)
            grouped.setdefault(key, set()).update(part.T)
        components = {key: tuple(filter(grouped[key].__contains__, masks))
                      for key in sorted(grouped)}
        return self._unchecked(split, output.r, components,
                               output.base_sets, self._family)

    @classmethod
    def derive(cls, family: SetFamily, split: Split, rank: int,
               anchors: SetFamily) -> tuple["ComponentCollection", SetFamily]:
        """Assign each member to the lexicographically first rank-sized
        strip selection whose projection of the member is an anchor; the
        anchors are the collection's bases.

        Returns the collection and the subfamily of members no selection
        accepts (skipped members are not an error at this level).
        """
        if not family.universe.n == anchors.universe.n == split.universe.n:
            raise UniverseMismatchError(
                "family or anchors over a different universe")
        _check_rank(rank, split.m)
        anchor_masks = set(anchors.masks())
        # strips are disjoint: a projection is the trace on their union
        unions = [(key, split.subsplit(key).union_mask)
                  for key in combinations(range(split.m), rank)]
        grouped: dict[tuple[int, ...], list[int]] = {}
        skipped = []
        for u in family.masks():
            for key, union in unions:
                if u & union in anchor_masks:
                    grouped.setdefault(key, []).append(u)
                    break
            else:
                skipped.append(u)
        if not grouped:
            raise ValueError("no member projects into the anchor family")
        return (cls(split, grouped, anchors),
                SetFamily(family.universe, skipped, m=family.m))


class BaseSetsOutput(_Record):
    """One engine call's result: rank, base sets, family, and its parts.

    ``family`` is the disjoint union of the parts' members (built on
    first use) and meets len(family) * 3^(mprime - r + 1) >= len(input
    family).  ``trace`` has one row per extraction performed during the
    call, including rounds whose accumulation fell short.
    """

    __slots__ = ("r", "base_sets", "parts", "trace", "_family")

    def __init__(self, r: int, base_sets: SetFamily,
                 parts: tuple[ElementaryPart, ...], trace: tuple[dict, ...]):
        self._set(r, base_sets, parts, trace, None)

    @property
    def family(self) -> SetFamily:
        if self._family is None:   # m defaults to the members' size
            _setattr(self, "_family", SetFamily(
                self.base_sets.universe,
                [u for part in self.parts for u in part.T]))
        return self._family


def _clean_to_spread(bucket: list[int], free: Subsplit, bases: SetFamily,
                     p: int, q: int) -> list[int]:
    """Greedy maximal subfamily of the bucket with no spreadness violator
    on the free strips over the shadow of ``bases`` (b = p/q): repeatedly
    find a maximal violator and drop every member containing it.  One
    count map by size of the members' traces on the free strips serves
    the whole cleaning; a dropped member's traces are taken off it."""
    counts = _carried_counts(bucket, free)
    t = bucket
    while t:
        v = _max_violator_masks(counts, len(t), bases, p, q)
        if v is None:
            break
        _tally_traces(counts, [u for u in t if u & v == v], free, -1)
        t = [u for u in t if u & v != v]
    return t


def _projection_groups(members: Iterable[int],
                       union: int) -> dict[int, list[int]]:
    """The members by their projection ``u & union``, in order."""
    groups: dict[int, list[int]] = {}
    for u in members:
        groups.setdefault(u & union, []).append(u)
    return groups


def _full_rank_pass(comp: tuple[int, ...], union: int, live: set[int],
                    floor: int | float,
                    full: bool) -> Iterator[tuple[int, list[int]]]:
    """Yield (base mask, member masks) for each projection group of the
    component onto its strips (``union``) that reaches ``floor``, in label
    order, after removing its members from ``live``.  At r = m' a member
    contains a base on the strips exactly when it projects onto it, and
    every projection is a base, so these groups are the buckets; being
    disjoint, no take shrinks another.  When ``full`` (m' = m, the key is
    every strip) each member is its own projection, so every group is one
    member and none reaches a floor above 1: nothing is grouped.
    """
    if full and floor > 1:
        return
    groups = _projection_groups(comp, union)
    for bm in sorted((bm for bm, t in groups.items() if len(t) >= floor),
                     key=_canonical_key):
        live.difference_update(groups[bm])
        yield bm, groups[bm]


def _extractions(r: int, live: set[int], comp: tuple[int, ...],
                 sub: Subsplit, bases: SetFamily, floor: int | float,
                 b: Fraction) -> Iterator[tuple[int, list[int]]]:
    """Drain one component at a rank r below m': yield (base mask, member
    masks) for each extraction, after removing its members from ``live``.
    A base's bucket is its projection group: for the r strips S of
    ``sub`` it lies on, the members of ``comp`` whose projection onto S,
    ``u & union(S)``, is the base, filtered by ``live``.  As members are
    on-split m-sets, these are exactly the members containing the base.

    A min-heap holds the label-order indices of the undecided candidate
    bases, at the start all whose group exceeds b and reaches ``floor``
    (eps_need at r = 0, else 1).  The smallest is popped:
    dropped if its live bucket is empty, else decided on it cleaned to
    spreadness on the f = m' - r strips off the base, taken if its size
    reaches the floor and else passed over.  A take re-queues the passed
    bases its members contain, the only ones whose buckets it shrinks.
    An empty live set ends the drain, as no empty bucket qualifies.

    The candidates lose no base the drain could take.  A live bucket
    lies inside its group.  So a base whose group is at most b is dropped
    by rule 1 below, and one whose group misses the floor is dropped or
    passed over, whatever a bucket over more members (the whole family's,
    say) holds.  And every nonempty group lies in the bases' shadow: each
    member projects onto a base on the component's strips, and that base
    contains the group's own.

    Two exact rules settle a live bucket t with no count.  Members are
    on-split m-sets projecting onto bases (the collection's invariants),
    so each trace on the free strips has f labels and its subsets are in
    the bases' shadow.  Rule 1: if |t| <= b, every traced label violates
    (1 * b >= |t|), so t empties.  Rule 2: if the traces are disjoint
    (|t| * f labels in all), every count is 1, so while |t| <= b^f a
    whole trace is the largest violator and t empties; else nothing
    violates and t stays whole.  Only a counted cleaning builds the free
    subsplit and reads the bases' member columns.  A base a rule empties
    is dropped, not passed: its later buckets lie inside t, so the rule
    empties them too.

    This yields what a scan restarting from the first (component, base)
    pair after every extraction would take.  A base passed over keeps its
    verdict until an extraction takes a member of its bucket, as live
    sets only shrink and a verdict depends only on the bucket and on what
    the call fixes.  And a restart only passed over earlier components
    again, whose live sets an extraction here leaves unchanged.
    """
    p, q = b.numerator, b.denominator
    f = sub.rank - r
    pf, qf = p ** f, q ** f
    need = max(floor, p // q + 1)
    buckets = {bm: t for strips in combinations(sub.strip_masks, r)
               for bm, t in _projection_groups(comp, sum(strips)).items()
               if len(t) >= need}
    cands = sorted(buckets, key=_canonical_key)
    heap = list(range(len(cands)))
    passed: dict[int, int] = {}   # base mask -> index
    while heap and live:
        i = heappop(heap)
        bm = cands[i]
        bucket = buckets[bm]
        if live.isdisjoint(bucket):
            continue
        bucket = [u for u in bucket if u in live]
        n = len(bucket)
        if n * q <= p:   # rule 1
            continue
        union = sum(bits for bits in sub.strip_masks if not bits & bm)
        traces = 0
        for u in bucket:
            traces |= u & union
        if n * f == traces.bit_count():   # rule 2
            if n * qf <= pf:
                continue
            t = bucket
        else:
            t = _clean_to_spread(bucket, sub.minus(bm), bases, p, q)
        if len(t) < floor:
            passed[bm] = i
            continue
        live.difference_update(t)
        for c in list(passed):
            for u in t:
                if u & c == c:
                    heappush(heap, passed.pop(c))
                    break
        yield bm, t


def base_sets(collection: ComponentCollection, cfg: Constants,
              p_label: int = 1) -> BaseSetsOutput:
    """Run the extraction scan over ranks m' (the collection's rank) down
    to 0 and return at the first rank whose extracted union reaches
    3^(r - m' - 1) of the input.

    The working family persists across ranks (extractions at a failed rank
    stay removed); the accumulated union and base list reset per rank.
    At r = m' each component's projection groups reaching need[m'] are
    taken (:func:`_full_rank_pass`); below, the components are drained
    in key order (:func:`_extractions`), each on its own projection
    groups.
    Each (base, component) pair is extracted at most once per call.
    Raises ContractViolationError with the full extraction trace when no
    rank reaches its bound.

    The collection's constructors have checked its members and bases;
    this checks the strip count against cfg.m, that famSize is set and
    the 3^(-2m) * famSize floor (ValueError).
    """
    split = collection.split
    if split.m != cfg.m:
        raise ValueError("split strip count must equal the configured m")
    cfg._need_fam_size()
    mprime, components = collection.rank, collection.components
    size = sum(len(comp) for comp in components.values())
    if size * 3 ** (2 * cfg.m) < cfg.fam_size:
        raise ValueError(
            f"input family of size {size} is below the "
            f"3^(-2m) * famSize floor")

    full = mprime == cfg.m
    thr = Threshold(cfg)
    b = exact_base(cfg.b)
    work = {key: set(comp) for key, comp in components.items()}
    trace: list[dict] = []

    for r in range(mprime, -1, -1):
        round_parts: list[ElementaryPart] = []
        cumulative = 0
        variant = "ii" if r == mprime else "i"
        for key, live in work.items():
            sub = collection.split.subsplit(key)
            if r == mprime:
                found = _full_rank_pass(components[key], sub.union_mask,
                                        live, thr.need[mprime], full)
            else:
                found = _extractions(r, live, components[key], sub,
                                     collection.bases,
                                     thr.eps_need if r == 0 else 1, b)
            for bm, t_masks in found:
                part = ElementaryPart(bm, key, tuple(t_masks), variant)
                round_parts.append(part)
                cumulative += len(t_masks)
                trace.append({"p": p_label, "r": r,
                              "B": list(mask_labels(bm)), "Xprime": list(key),
                              "sizeT": len(t_masks),
                              "cumulative": cumulative})
        if cumulative * 3 ** (mprime - r + 1) >= size:
            return _finish(r, round_parts, trace, collection, cfg, thr, b,
                           full)
    raise ContractViolationError(
        "no rank produced the guaranteed retained fraction; the constants "
        "are outside the supported regime or the engine has a bug",
        trace=trace)


def _finish(r: int, parts: list[ElementaryPart], trace: list[dict],
            collection: ComponentCollection, cfg: Constants, thr: Threshold,
            b: Fraction, full: bool) -> BaseSetsOutput:
    """Assemble the output and check the engine's postconditions; a
    failed one raises ContractViolationError carrying the trace.
    ``full`` is base_sets' m' = m, where every projection group is one
    member."""

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise ContractViolationError(what, trace=trace)

    uni = collection.split.universe
    all_masks = [u for part in parts for u in part.T]
    require(len(set(all_masks)) == len(all_masks), "parts must be disjoint")
    pair_keys = [(part.B, part.key) for part in parts]
    require(len(set(pair_keys)) == len(pair_keys), "pairs must be unique")
    base_family = SetFamily(uni, {part.B for part in parts}, m=r)

    by_key: dict[tuple[int, ...], list[int]] = {}
    for part in parts:
        by_key.setdefault(part.key, []).extend(part.T)
    mprime = collection.rank
    if r < mprime and full:
        # every group is one member, and none was taken
        require(thr.need[mprime] > 1,
                "threshold property failed for the returned rank")
    elif r < mprime:
        # the full-rank pass took every group reaching need[m'], so the
        # parts' members, all left after it, form only smaller ones
        for key, masks in by_key.items():
            groups = _projection_groups(
                masks, collection.split.subsplit(key).union_mask)
            require(max(map(len, groups.values())) < thr.need[mprime],
                    "threshold property failed for the returned rank")
    if r == 0:
        for key, masks in by_key.items():
            require(len(masks) >= thr.eps_need,
                    "rank-0 component below the epsilon floor")
            comp = SetFamily(uni, masks, m=cfg.m)
            report = check_gamma_on_subsplit(
                comp, collection.split.subsplit(key), collection.bases, b)
            require(report.holds,
                    "rank-0 component fails the spreadness condition")
    return BaseSetsOutput(r, base_family, tuple(parts), tuple(trace))


class ProcessStep(_Record):
    """One driver iteration: the rank and bases fed in, and the output."""

    __slots__ = ("p", "r_in", "output")

    def __init__(self, p: int, r_in: int, output: BaseSetsOutput):
        self._set(p, r_in, output)


class ProcessRResult(_Record):
    """The driver's steps, its terminal index and rank, and the terminal
    output's bases, family and parts, with the whole trace."""

    __slots__ = ("steps", "p_hat", "r_hat", "bases_hat", "family_hat",
                 "parts_hat", "trace")

    def __init__(self, steps: tuple[ProcessStep, ...], p_hat: int,
                 r_hat: int, bases_hat: SetFamily, family_hat: SetFamily,
                 parts_hat: tuple[ElementaryPart, ...],
                 trace: tuple[dict, ...]):
        self._set(steps, p_hat, r_hat, bases_hat, family_hat, parts_hat,
                  trace)


def process_r(family: SetFamily, split: Split, cfg: Constants) -> ProcessRResult:
    """Iterate the engine from rank m with the family anchoring itself.

    Step 1 runs on :meth:`ComponentCollection.initial`, each later step on
    the previous step's collection regrouped by its output.  Stops when
    the output rank repeats the input rank (terminal index p) or hits
    zero (terminal index p+1); non-terminal steps strictly decrease the
    rank, so at most m+1 calls run.  Errors from the first collection on
    propagate with the completed steps attached as ``partial_steps``; a
    ContractViolationError's ``trace`` then holds the completed steps'
    rows before the failing call's.
    """
    if split.universe.n != family.universe.n:
        raise UniverseMismatchError("split over a different universe")
    if cfg.m != split.m:
        raise ValueError("split strip count must equal the configured m")
    if len(family) == 0:
        raise ValueError("family must be nonempty")
    if cfg.fam_size is None:
        cfg = cfg.with_fam_size(len(family))

    steps: list[ProcessStep] = []
    trace: list[dict] = []
    try:
        collection = ComponentCollection.initial(family, split)
        while True:
            p = len(steps) + 1
            out = base_sets(collection, cfg, p)
            steps.append(ProcessStep(p, collection.rank, out))
            trace.extend(out.trace)
            if out.r == collection.rank or out.r == 0:
                break
            if not 0 < out.r < collection.rank:
                raise ContractViolationError("rank must strictly decrease")
            if p > cfg.m + 2:
                raise ContractViolationError(
                    "driver exceeded the rank-descent iteration bound")
            collection = collection.regroup(out)
    except (ContractViolationError, ValueError) as exc:
        exc.partial_steps = tuple(steps)
        if isinstance(exc, ContractViolationError):
            exc.trace = trace + list(exc.trace)
        raise
    p_hat = p if out.r == collection.rank else p + 1
    taken = set().union(*(part.T for part in out.parts))
    family_hat = _ordered_family(split.universe, tuple(
        filter(taken.__contains__, family.masks())))
    _setattr(out, "_family", family_hat)
    return ProcessRResult(tuple(steps), p_hat, out.r, out.base_sets,
                          family_hat, out.parts, tuple(trace))


def _check_audit_regime(cfg: Constants) -> None:
    if not cfg.c > cfg.h > 1:
        raise ValueError("the audit requires c > h > 1")


def audit_terminal_bases(result: ProcessRResult, family: SetFamily,
                         cfg: Constants) -> dict:
    """Report on the terminal parts: the size sandwich, restriction
    consistency, and the terminal-rank inequality chain.

    For every terminal part with base C: |T| >= need[r_hat] (the integer
    floor the extraction used) and |T| <= |F[C]|, both in exact integers,
    each |F[C]| read once.  |F[C]| is the popcount of the AND of C's
    member columns, the ones the family keeps for its shadow queries
    (:func:`families._kept_columns`), built by one pass over the family
    unless a counted cleaning has built them already.  Chain lines that
    depend on hypotheses about the original family (a spreadness level
    of c^c * k * ln k, or m > c^c * ln k) are evaluated numerically and
    marked "hypothesis unmet" when the hypothesis fails or cannot be
    evaluated, never treated as failures; a level past the float range
    is None.  The level is decided exactly (:func:`gamma._spread_holds`):
    |F[S]| is at most the largest degree D, the largest column popcount,
    below the largest member size M and 1 at M, so D * b^(M-1) < |F| and
    b^M < |F| prove it with no count, and D * b >= |F| or b^M >= |F|
    refutes it.  Where neither decides and the count is over the shadow
    budget, ``spread_hypothesis_holds`` is None, and
    ``spread_hypothesis_budget``, present only then, gives the count's
    needed and budget.
    """
    _check_audit_regime(cfg)
    if cfg.fam_size is None:
        cfg = cfg.with_fam_size(len(family))
    thr = Threshold(cfg)
    r_hat = result.r_hat
    k, m, c, h, eps = cfg.k, cfg.m, cfg.c, cfg.h, cfg.epsilon
    fam_size, log_k = cfg.fam_size, math.log(cfg.k)

    cols, everyone = _kept_columns(family), (1 << len(family)) - 1
    restriction = {bits: _holders(cols, everyone, bits).bit_count()
                   for bits in {part.B for part in result.parts_hat}}
    # |F[C]| < (c^c k ln k)^{-|C|} famSize, in logs; needs the original
    # family to be (c^c k ln k)-spread
    log_big_base = c * math.log(c) + log_k + math.log(log_k)
    part_lines = []
    totals: dict[int, int] = {}
    for part in result.parts_hat:
        c_set = part.B
        size_t = len(part.T)
        in_family = restriction[c_set]
        totals[c_set] = totals.get(c_set, 0) + size_t
        rhs_log = -part.r * log_big_base + math.log(fam_size)
        upper_chain = (math.log(in_family) < rhs_log if in_family > 0
                       else True)
        part_lines.append({
            "C": list(mask_labels(c_set)),
            "Xprime": list(part.key),
            "sizeT": size_t,
            "restriction": in_family,
            "lower_ok": size_t >= thr.need[r_hat],
            "upper_ok": size_t <= in_family,
            "chain_restriction_lt_spread_bound": upper_chain,
        })

    consistency_lines = []
    for bits in sorted(totals, key=_canonical_key):
        total, in_family = totals[bits], restriction[bits]
        consistency_lines.append({
            "C": list(mask_labels(bits)),
            "sum_parts": total,
            "restriction": in_family,
            "discarded": in_family - total,
            "ok": total <= in_family,
        })

    # hypotheses: the original family is spread at level c^c k ln k, and
    # m > c^c ln k
    try:
        c_pow_c = math.exp(c * math.log(c))
    except OverflowError:
        c_pow_c = math.inf
    level = c_pow_c * k * log_k
    big_b = spread_hypothesis = over_budget = None
    if level < math.inf:
        big_b = level
        try:
            spread_hypothesis = _spread_holds(
                family, Fraction(big_b),
                max(map(int.bit_count, cols.values()), default=0))
        except BudgetExceededError as exc:
            over_budget = {"needed": exc.needed, "budget": exc.budget}
    m_hypothesis = m > c_pow_c * log_k

    rank_bound = (5 * log_k - 2 * m * math.log(eps)) \
        / ((c - h) * math.log(c))
    mid_bound = (m / (2 * c)) * (log_k / m + 1)
    # the middle comparison additionally leans on the canonical schedule
    # h = exp(1/eps), c = exp(h); surrogate h, c do not support it
    chain = [
        {"line": "r_hat < (5 ln k - 2m ln eps) / ((c-h) ln c)",
         "lhs": r_hat, "rhs": rank_bound, "ok": r_hat < rank_bound,
         "hypothesis": "met" if spread_hypothesis else "unmet"},
        {"line": "(5 ln k - 2m ln eps) / ((c-h) ln c) < (m/2c)(ln k / m + 1)",
         "lhs": rank_bound, "rhs": mid_bound, "ok": rank_bound < mid_bound,
         "hypothesis": ("met" if spread_hypothesis and m_hypothesis
                        and cfg.mode == "canonical" else "unmet")},
        {"line": "(m/2c)(ln k / m + 1) < m/c",
         "lhs": mid_bound, "rhs": m / c, "ok": mid_bound < m / c,
         "hypothesis": "met" if m_hypothesis else "unmet"},
    ]

    report = {
        "p_hat": result.p_hat,
        "r_hat": r_hat,
        "parts": part_lines,
        "consistency": consistency_lines,
        "chain": chain,
        "spread_hypothesis_level": big_b,
        "spread_hypothesis_holds": spread_hypothesis,
        "m_hypothesis_holds": m_hypothesis,
        "all_sandwich_ok": all(row["lower_ok"] and row["upper_ok"]
                               for row in part_lines),
    }
    if over_budget is not None:
        report["spread_hypothesis_budget"] = over_budget
    return report
