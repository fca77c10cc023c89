"""Brute-force and reference oracles shared by the tests.

``p_set_masks`` lists the masks of the p-sets on a subsplit, and
``p_sets`` the same sets as ground sets.
``random_family`` draws ``size`` distinct m-sets on n labels.
``brute_max_ratio`` is the spreadness check by one restriction per
candidate set, with no subset map or count kernel.
``subset_map`` is the reference subset map: every subset of a member
mapped to its bucket of members, the dict the engine and the spreadness
checks read shadow membership from before they ANDed member columns.
``sunflower_free_check_oracle`` is deliberately independent of the fast
paths it checks: it goes through neither the subset map nor a pruned
search.  ``find_sunflower_backtrack`` is the per-core bucket
backtracking that the pair-link kernel of ``find_sunflower_exact``
replaced, kept as is; it reads the family's ``subset_map``, which the
property tests check against restrictions on their own, and it pins the
kernel's first certificate (core, and petals in order).
``disjoint_greedy_reference`` is the greedy of
``extract_disjoint_via_gamma`` as the scan over the sorted family that
the label-ordered pass replaced, with no spreadness check.
``extractions_by_rescan`` is the engine's extraction scan with nothing
carried between scans: it decides every (component, base) pair again
from the first after each extraction, on buckets read off the live sets,
over every candidate base in the shadow of the collection's G
(``candidate_bases``, with no pre-filter on bucket sizes), cleaning with
a fresh violator search per removal (``clean_to_spread`` over
``max_violator_masks``, which picks the violator by its definition, from
a count map of ``carried_counts_reference`` built for that call, with
none of the engine's counting or violator kernels).
``is_elementary_part`` is the reference checker of one extracted part
against its variant's conditions, which the engine tests hold every part
the engine returns to; its spreadness check is ``subsplit_report``.
Both read the paper's anchor family G off the collection with
``anchor_bases``: every member's projection onto its component's strips.
These oracles keep spreadness over the shadow of a range family, G, as
its definition reads: ``counts_in_range`` cuts each count map to that
shadow, a filter the engine leaves out as every set it counts lies
inside its member's projection.  ``extractions_by_rescan`` and
``is_elementary_part`` decide size floors with ``meets_threshold`` and
``meets_eps_floor``, the float comparisons the engine made before it
compared integer counts with :class:`Threshold`'s integer table: directly,
or in log-space below ``LOG_SPACE_SWITCH``, with an independent log f
(``log_threshold_oracle``).
``family_from_text_reference`` and ``family_from_json_obj_reference``
are the parsers that read every row into a label list first and build
the family with ``SetFamily.of``, the route the mask-direct parsers
replaced.
``degree_bound_decides`` is the degree bound that settles the engine
audit's spreadness check either way before any count, recomputed with
one restriction per label (``max_degree``); the check it settles is
``check_gamma``.
``full_rank_pass_by_grouping`` is the engine's full-rank pass as it
grouped every component by projection, before a component keyed by
every strip skipped grouping at a floor above 1.
``carried_counts_reference`` is the trace count map by size with its
budget summed exactly before any count and compared on its own, not
through the kernel's budget helper, and with every carried subset
counted one by one.
``meet_once`` is the member scan the split searches' column-bitset
incidence kernel replaced, and ``enumerate_splits_reference`` the split
enumerator that recursed until no label remained, kept as is to pin the
order in which splits are yielded.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from typing import Iterator

from sunflower.basesets import (Constants, ComponentCollection, ElementaryPart,
                                Threshold)
from sunflower.errors import BudgetExceededError, ContractViolationError
from sunflower.families import (DEFAULT_SHADOW_BUDGET, GroundSet, SetFamily,
                                Split, Subsplit, Universe,
                                _check_shadow_budget, _mask_repr, mask_labels)
from sunflower.gamma import GammaReport, _spread_report, exact_base
from sunflower.rng import CounterRng
from sunflower.sunflowers import (DEFAULT_SEARCH_NODE_BUDGET,
                                  SunflowerCertificate)

DEFAULT_ORACLE_BUDGET = 1 << 20
LOG_SPACE_SWITCH = 1e-300


def subset_map(masks) -> dict[int, list[int]]:
    """Every subset S of some member of ``masks`` mapped to the members
    containing it, in input order, so ``s in map`` is shadow membership
    and the bucket's length is |F[S]|; the empty mask maps to every member
    and no members give an empty dict.  Built in one pass that enumerates
    each member's submasks (``s = (s - 1) & u``), with no budget."""
    buckets = {0: list(masks)} if masks else {}
    for u in masks:
        s = u
        while s:
            buckets.setdefault(s, []).append(u)
            s = (s - 1) & u
    return buckets


def random_family(n: int, m: int, size: int, seed: int) -> SetFamily:
    """``size`` distinct m-sets on n labels, drawn by seed."""
    rng = CounterRng(seed)
    combos = list(combinations(range(n), m))
    picks = rng.sample(range(len(combos)), size)
    return SetFamily.of(n, [combos[i] for i in picks], m=m)


def _meets_floor(count: int, direct: float, log_value: float) -> bool:
    """count >= floor, comparing directly or in log-space for tiny floors."""
    if direct >= LOG_SPACE_SWITCH:
        return count >= direct
    if count <= 0:
        return False
    return math.log(count) >= log_value


def log_threshold_oracle(cfg: Constants, x: int) -> float:
    """Independent log-space recomputation of the bucket floor f(x)."""
    base = (cfg.h * math.log(cfg.c) + math.log(cfg.k)
            + math.log(math.log(cfg.k)))
    return (-5 * math.log(cfg.k) + 2 * cfg.m * math.log(cfg.epsilon)
            + math.log(cfg.fam_size) - x * base)


def meets_threshold(cfg: Constants, count: int, x: int) -> bool:
    """count >= f(x): the float ``Threshold.value`` compared directly, or
    in log-space below the switch."""
    return _meets_floor(count, Threshold(cfg).value(x),
                        log_threshold_oracle(cfg, x))


def meets_eps_floor(cfg: Constants, count: int) -> bool:
    """count >= epsilon^m * famSize, the float product compared directly
    (exp of its log where the product overflows, inf past the float
    range), or in log-space below the switch."""
    log_value = cfg.m * math.log(cfg.epsilon) + math.log(cfg.fam_size)
    try:
        direct = cfg.epsilon ** cfg.m * cfg.fam_size
    except OverflowError:
        try:
            direct = math.exp(log_value)
        except OverflowError:
            direct = math.inf
    return _meets_floor(count, direct, log_value)


def p_set_masks(sub: Subsplit, p: int) -> Iterator[int]:
    """All masks of p-sets on ``sub``, one element per chosen strip.

    For p = 0 yields the empty mask once, matching the convention that
    a rank-0 selection carries exactly the empty set.
    """
    if p < 0:
        raise ValueError("cardinality must be nonnegative")
    if p == 0:
        yield 0
        return
    if p > sub.rank:
        return
    strip_bits = [[1 << x for x in mask_labels(s)] for s in sub.strip_masks]
    for which in combinations(range(sub.rank), p):
        # the last chosen strip varies fastest: label-tuple order within
        # one strip selection
        masks = [0]
        for i in which:
            masks = [u | bit for u in masks for bit in strip_bits[i]]
        yield from masks


def p_sets(sub: Subsplit, p: int) -> Iterator[GroundSet]:
    """The p-sets on ``sub``, one element per chosen strip, as ground sets
    in :func:`p_set_masks` order."""
    uni = sub.split.universe
    for mask in p_set_masks(sub, p):
        yield GroundSet(uni, mask)


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


def max_degree(family: SetFamily) -> int:
    """The largest restriction of the family to one label."""
    return max(len(family.restrict(GroundSet(family.universe, 1 << x)))
               for x in range(family.universe.n))


def degree_bound_decides(family: SetFamily, b) -> bool:
    """Whether D * b^(M-1) < |F| and b^M < |F| (proving b-spreadness), or
    D * b >= |F| or b^M >= |F| (refuting it), with D the largest
    restriction to one label and M the largest member size (M >= 1)."""
    b = exact_base(b)
    top = max((u.bit_count() for u in family.masks()), default=0)
    if not top:
        return False
    degree = max_degree(family)
    size = len(family)
    return (degree * b ** (top - 1) < size and b ** top < size
            or degree * b >= size or b ** top >= size)


def sunflower_free_check_oracle(family: SetFamily, k: int,
                                budget: int = DEFAULT_ORACLE_BUDGET,
                                shadow_budget: int = DEFAULT_SHADOW_BUDGET,
                                ) -> bool:
    """True iff the family has no k-sunflower, by unpruned exhaustion.

    Checks every k-combination of every core bucket against the pairwise
    definition.  Deliberately independent of find_sunflower_exact;
    ``budget`` caps the total combinations examined.
    """
    if k < 2:
        raise ValueError("sunflower size must be at least 2")
    if len(family) < k:
        return True
    cores = family.shadow(budget=shadow_budget).members
    work = sum(comb(len(family.restrict(core)), k) for core in cores)
    if work > budget:
        raise BudgetExceededError(
            f"oracle would examine {work} combinations (budget {budget})",
            needed=work, budget=budget)
    for core in cores:
        bucket = family.restrict(core).masks()
        c = core.bits
        for combo in combinations(bucket, k):
            if all(a & b == c for a, b in combinations(combo, 2)):
                return False
    return True


def find_sunflower_backtrack(family: SetFamily, k: int,
                             node_budget: int = DEFAULT_SEARCH_NODE_BUDGET,
                             shadow_budget: int = DEFAULT_SHADOW_BUDGET,
                             ) -> SunflowerCertificate | None:
    """Complete search for a k-sunflower; None proves there is none.

    Candidate cores are the family's shadow in (cardinality, lexicographic)
    order, each with its bucket of members from the family's
    :func:`subset_map` (``shadow_budget`` caps its sum(2**|U|) entries,
    checked before it is built); within a core's
    bucket, petals are chosen by backtracking over the canonical member
    order, so the first certificate found is deterministic.
    ``node_budget`` caps total backtracking nodes.
    """
    if k < 2:
        raise ValueError("sunflower size must be at least 2")
    if len(family) < k:
        return None
    _check_shadow_budget(sum(1 << u.bit_count() for u in family.masks()),
                         shadow_budget)
    buckets = subset_map(family.masks())
    cores = sorted((c for c, members in buckets.items() if len(members) >= k),
                   key=lambda c: (c.bit_count(), mask_labels(c)))
    nodes = 0
    for core in cores:
        bucket = [u & ~core for u in buckets[core]]

        chosen: list[int] = []

        def rec(start: int, used: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"sunflower search exceeded {node_budget} nodes",
                    needed=nodes, budget=node_budget)
            if len(chosen) == k:
                return True
            if len(bucket) - start < k - len(chosen):
                return False
            for i in range(start, len(bucket)):
                b = bucket[i]
                if b & used:
                    continue
                chosen.append(b)
                if rec(i + 1, used | b):
                    return True
                chosen.pop()
            return False

        if rec(0, 0):
            uni = family.universe
            petals = tuple(GroundSet(uni, b | core) for b in chosen)
            return SunflowerCertificate(petals, GroundSet(uni, core))
    return None


def disjoint_greedy_reference(family: SetFamily, k: int,
                              b) -> list[int] | None:
    """The petals of ``extract_disjoint_via_gamma(family, k, b)`` on a
    family taken as spread: the first remaining member in sorted label
    order, then the members disjoint from it, k times.  A stall returns
    None, or raises ContractViolationError where b >= k * m >= k promises
    completion."""
    if k < 2:
        raise ValueError("sunflower size must be at least 2")
    guaranteed = family.m >= 1 and exact_base(b) >= k * family.m
    remaining = sorted(family.masks(), key=mask_labels)
    petals = []
    for _ in range(k):
        if not remaining:
            if guaranteed:
                raise ContractViolationError("greedy stalled")
            return None
        pick = remaining[0]
        petals.append(pick)
        remaining = [u for u in remaining if not u & pick and u != pick]
    return petals


def counts_in_range(masks, sub: Subsplit,
                    over: SetFamily) -> dict[int, dict[int, int]]:
    """The trace counts of ``masks`` on ``sub`` by size
    (``carried_counts_reference``), each size cut to the sets in the
    shadow of ``over``, those inside one of its members; sizes left with
    none are dropped."""
    range_masks = over.masks()
    by_size = {size: {s: count for s, count in counts.items()
                      if any(u & s == s for u in range_masks)}
               for size, counts in carried_counts_reference(
                   masks, sub, DEFAULT_SHADOW_BUDGET).items()}
    return {size: counts for size, counts in by_size.items() if counts}


def max_violator_masks(masks, sub: Subsplit, over: SetFamily,
                       b) -> int | None:
    """A maximal spreadness violator of ``masks`` on ``sub`` over the
    shadow of ``over`` at base b, or None, by the definition: from the
    largest size down, the counted sets S of the first size with any
    |F[S]| * b^|S| >= |F|, and of those the least label tuple.  The
    counts are built for this call alone and cut to that shadow."""
    b = exact_base(b)
    counts = counts_in_range(masks, sub, over)
    for size in sorted(counts, reverse=True):
        hits = [s for s, count in counts[size].items()
                if count * b ** size >= len(masks)]
        if hits:
            return min(hits, key=mask_labels)
    return None


def subsplit_report(family: SetFamily, sub: Subsplit, over: SetFamily,
                    b) -> GammaReport:
    """The spreadness check on ``sub`` with its candidates cut to the
    shadow of ``over``: the nonempty sets on the subsplit inside a
    member's trace and inside a member of ``over``."""
    return _spread_report(family, exact_base(b),
                          counts_in_range(family.masks(), sub, over))


def clean_to_spread(bucket, free: Subsplit, bases: SetFamily, b) -> list[int]:
    """The bucket with every member containing a maximal violator on the
    free strips dropped, one violator at a time, until none is left."""
    t = list(bucket)
    while t:
        v = max_violator_masks(t, free, bases, b)
        if v is None:
            break
        t = [u for u in t if u & v != v]
    return t


def full_rank_pass_by_grouping(comp, union: int, live: set[int],
                               floor) -> list[tuple[int, list[int]]]:
    """(base mask, members) for each group of members with one projection
    onto ``union`` that reaches ``floor``, in label order, with the
    members taken off ``live``."""
    groups: dict[int, list[int]] = {}
    for u in comp:
        groups.setdefault(u & union, []).append(u)
    found = [(bm, groups[bm]) for bm in sorted(groups, key=mask_labels)
             if len(groups[bm]) >= floor]
    for _, t in found:
        live.difference_update(t)
    return found


def carried_counts_reference(masks, sub: Subsplit,
                             budget: int) -> dict[int, dict[int, int]]:
    """``counts[s][S]`` = |F[S]| for every nonempty S of s labels on
    ``sub`` inside some member's trace on the subsplit's union, after
    checking the traces' exact sum(2**|trace|) against ``budget``
    (BudgetExceededError beyond)."""
    union = sub.union_mask
    need = sum(2 ** len(mask_labels(u & union)) for u in masks)
    if need > budget:
        raise BudgetExceededError("traces over budget", needed=need,
                                  budget=budget)
    counts: dict[int, dict[int, int]] = {}
    for u in masks:
        labels = mask_labels(u & union)
        for size in range(1, len(labels) + 1):
            for c in combinations(labels, size):
                s = sum(1 << x for x in c)
                if sub.carries_mask(s):
                    by = counts.setdefault(size, {})
                    by[s] = by.get(s, 0) + 1
    return counts


def anchor_bases(collection: ComponentCollection) -> SetFamily:
    """The collection's anchor family G, as the paper reads it: every
    member's projection onto its component's key strips, a family of
    rank-sets."""
    split = collection.split
    return SetFamily(split.universe,
                     {u & split.subsplit(key).union_mask
                      for key, comp in collection.components.items()
                      for u in comp}, m=collection.rank)


def candidate_bases(sub: Subsplit, r: int, bases: SetFamily) -> list[int]:
    """Masks of every r-set on ``sub`` inside the bases' shadow, in label
    order, whatever its bucket; rank 0 gives the empty set alone."""
    shadow = subset_map(bases.masks())
    return sorted((bm for bm in p_set_masks(sub, r) if bm in shadow),
                  key=mask_labels)


def extractions_by_rescan(r: int, work: dict[tuple[int, ...], set[int]],
                          collection: ComponentCollection,
                          cfg: Constants) -> list[tuple]:
    """The extractions of one engine rank r on the collection, as (key,
    base mask, member masks, variant) in the order taken, by a restart
    scan: each scan decides every (component, base) pair not yet
    extracted, components by key and candidate bases by label, and takes
    the first that qualifies.  A bucket is the component's live members
    containing the base, read off ``work`` (live members per key), which
    is updated in place."""
    b = exact_base(cfg.b)
    mprime, bases = collection.rank, anchor_bases(collection)
    extracted: set[tuple[tuple[int, ...], int]] = set()
    found = []

    def first_extraction():
        for key, comp in collection.components.items():
            sub = collection.split.subsplit(key)
            for bm in candidate_bases(sub, r, bases):
                if (key, bm) in extracted:
                    continue
                bucket = [u for u in comp if u & bm == bm and u in work[key]]
                if r == mprime:
                    if meets_threshold(cfg, len(bucket), mprime):
                        return key, bm, bucket, "ii"
                elif bucket:
                    t = clean_to_spread(bucket, sub.minus(bm), bases, b)
                    if t and (r > 0 or meets_eps_floor(cfg, len(t))):
                        return key, bm, t, "i"
        return None

    while (hit := first_extraction()) is not None:
        key, bm, t_masks, _ = hit
        work[key].difference_update(t_masks)
        extracted.add((key, bm))
        found.append(hit)
    return found


def is_elementary_part(part: ElementaryPart, collection: ComponentCollection,
                       cfg: Constants) -> bool:
    """Exact check that a candidate part satisfies its variant's conditions
    over the collection's bases, its G (``anchor_bases``).

    Variant "i" (rank below the collection's): base in the bases' shadow,
    members all containing the base, spreadness with base b = c*k on the
    component strips off the base over the bases, and the epsilon floor
    when the base is empty.  Variant "ii" (full rank): base in the bases'
    shadow, and the bucket at the base meets f(rank) whenever rank < m.
    Structural defects (unknown component, base not on the subsplit, part
    not inside the component) raise; condition failures return False.
    """
    if part.key not in collection.components:
        raise ValueError(f"unknown component key {part.key}")
    sub = collection.split.subsplit(part.key)
    b_bits = part.B
    if b_bits and not sub.carries_mask(b_bits):
        raise ValueError(f"base {_mask_repr(b_bits)} does not lie on "
                         f"subsplit {part.key}")
    if not set(part.T) <= set(collection.components[part.key]):
        raise ValueError("part members must come from the keyed component")
    if not part.T:
        return False
    r = part.r
    mprime, bases = collection.rank, anchor_bases(collection)
    if b_bits not in subset_map(bases.masks()):
        return False
    if part.variant == "i":
        if r >= mprime:
            return False
        if not all(u & b_bits == b_bits for u in part.T):
            return False
        members = SetFamily(collection.split.universe, part.T)
        if not subsplit_report(members, sub.minus(b_bits), bases,
                               cfg.b).holds:
            return False
        if r == 0:
            return meets_eps_floor(cfg, len(part.T))
        return True
    if part.variant == "ii":
        if r != mprime:
            return False
        if cfg.m > mprime:
            bucket = sum(1 for u in part.T if u & b_bits == b_bits)
            return meets_threshold(cfg, bucket, mprime)
        return True
    raise ValueError(f"unknown variant {part.variant!r}")


def family_from_text_reference(text: str) -> SetFamily:
    """The text format read into label lists, then ``SetFamily.of``."""
    header = None
    rows: list[list[int]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "universe" \
                    or parts[2] != "maxcard":
                raise ValueError(f"bad header line: {raw!r}")
            header = (int(parts[1]), int(parts[3]))
            continue
        if line == "-":
            rows.append([])
        else:
            rows.append([int(tok) for tok in line.split()])
    if header is None:
        raise ValueError("missing 'universe <n> maxcard <m>' header")
    n, m = header
    return SetFamily.of(n, rows, m=m)


def family_from_json_obj_reference(obj: dict) -> SetFamily:
    """The JSON family object, type-checked, then ``SetFamily.of``."""
    try:
        n, m, sets = obj["n"], obj["m"], obj["sets"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad family object: {exc}") from None
    if not (type(sets) is list and all(type(s) is list for s in sets)
            and all(type(x) is int for x in (n, m, *chain(*sets)))):
        raise ValueError("bad family object: n, m and the labels must be "
                         "integers, sets a list of lists")
    return SetFamily.of(n, sets, m=m)


def meet_once(masks: tuple[int, ...], block: int) -> int:
    """Bitset over member indices of the members meeting ``block`` in
    exactly one element."""
    bits = 0
    for i, u in enumerate(masks):
        if (u & block).bit_count() == 1:
            bits |= 1 << i
    return bits


def enumerate_splits_reference(universe: Universe, m: int) -> Iterator[Split]:
    """All splits of the universe into m strips, each once.

    Canonical form: the smallest label not yet assigned starts the next
    strip, so strips come out ordered by minimum element and every
    unordered partition appears exactly once.
    """
    n = universe.n
    if m < 1 or n % m:
        raise ValueError(f"strip count {m} must divide universe size {n}")
    d = n // m

    def rec(remaining: int, strips: list[int]) -> Iterator[Split]:
        if not remaining:
            yield Split(universe, tuple(strips))
            return
        anchor = remaining & -remaining
        rest = remaining ^ anchor
        rest_labels = []
        x = rest
        while x:
            low = x & -x
            rest_labels.append(low)
            x ^= low
        for extra in combinations(rest_labels, d - 1):
            block = anchor
            for bit in extra:
                block |= bit
            strips.append(block)
            yield from rec(remaining ^ block, strips)
            strips.pop()

    yield from rec(universe.full_mask, [])
