"""k-sunflower detection, verification, and greedy disjoint extraction.

A k-sunflower (Delta-system) is k distinct sets whose pairwise
intersections all equal one common core.  Any two petals already fix
the core (u & v = T), so detection starts from one pass over the member
pairs: member i's row maps each trace masks[i] & masks[j], j > i, to the
bitset of later members meeting it in exactly that trace.  Only a row
that repeats a trace (any row when k = 2) can start a search, and only
such a row pays for more than one bit per trace: for its repeats when
they are fewer than half its links, else for its length.  A
depth-first search per core then narrows bitsets of linked candidates,
which is complete, and its first certificate (core, then petals)
follows the canonical member order.  ``shadow_budget`` caps the rows'
entries, ``node_budget`` the partial sunflowers visited.

The extraction route needs no search at all: when the family is b-spread
for b >= k * m, greedily picking a member and discarding everything it
meets must survive k rounds, because the spreadness condition caps how
many members any one element can kill.  The greedy is one pass over the
labels in ascending order, and it never sorts the family.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

from .errors import (BudgetExceededError, ContractViolationError,
                     GammaPreconditionError, UniverseMismatchError)
from .families import (DEFAULT_SHADOW_BUDGET, GroundSet, SetFamily,
                       _canonical_key, _check_shadow_budget, _Record)
from .gamma import check_gamma, exact_base

DEFAULT_SEARCH_NODE_BUDGET = 1 << 22


class SunflowerCertificate(_Record):
    """k petals claimed to intersect pairwise in exactly ``core``.

    The constructor checks only shape (at least two petals, one universe);
    the combinatorial claim is checked by :func:`verify_certificate`, so a
    bad certificate is representable and verifiably bad.
    """

    __slots__ = ("petals", "core")

    def __init__(self, petals: tuple[GroundSet, ...], core: GroundSet):
        if len(petals) < 2:
            raise ValueError("a sunflower needs at least 2 petals")
        for p in petals:
            if p.universe.n != core.universe.n:
                raise UniverseMismatchError(
                    "petals and core must share a universe")
        self._set(petals, core)

    @property
    def k(self) -> int:
        return len(self.petals)

    def to_json_obj(self) -> dict:
        return {"core": list(self.core.labels()),
                "petals": [list(p.labels()) for p in self.petals]}


def verify_certificate(cert: SunflowerCertificate) -> bool:
    """True iff petals are distinct and every pairwise intersection is the core."""
    masks = [p.bits for p in cert.petals]
    if len(set(masks)) != len(masks):
        return False
    core = cert.core.bits
    return all(a & b == core for a, b in combinations(masks, 2))


def find_sunflower_exact(family: SetFamily, k: int,
                         node_budget: int = DEFAULT_SEARCH_NODE_BUDGET,
                         shadow_budget: int = DEFAULT_SHADOW_BUDGET,
                         ) -> SunflowerCertificate | None:
    """Complete search for a k-sunflower; None proves there is none.

    One pass over the member pairs i < j of ``family.masks()``, with
    |F|(|F|-1)/2 ANDs, builds rows[i]: it maps each trace c = masks[i] &
    masks[j] to the bitset of later members j linked to i, i.e. meeting
    it in exactly c.  A comprehension keeps one bit per trace, the last;
    a row where that drops links takes one of three paths.  Fewer than
    half dropped: the later bits missing from its values are the dropped
    members, each ORed into its trace, and only those traces are tested
    for ``starts``.  One trace kept: it links every later member, whose
    bitset the row takes with no OR.  Otherwise the row is rebuilt by
    ORing bits per trace, as is every row when k = 2 or when it
    outnumbers the 2**|masks[i]| traces it can hold.  A dropped link costs
    about two steps of that OR loop, so the split falls at half.  k
    members form a sunflower with core c iff each is linked to every
    later one under c, and k - 1 >= 2 links under one key repeat a trace,
    so only rows with a repeat feed ``starts``: under each key, the
    members i with at least k - 1 links there, ascending.  Cores
    are the keys of ``starts`` in (cardinality, lexicographic) order.
    Within a core a depth-first search takes first petals from
    ``starts[core]`` and narrows the candidates to those linked to every
    pick, pruning once fewer candidates remain than petals still needed.
    The first certificate found is the core first in that order, with
    the lexicographically least index tuple of petals within it.

    ``node_budget`` caps the nodes, the partial sunflowers the search
    visits: a first petal with at least k - 1 links, and each pick that
    leaves enough candidates, count one each, so a direct hit costs k.
    Member i's keys are submasks of masks[i], so the rows hold at most
    sum(2**|U|) entries; ``shadow_budget`` caps that sum, checked up front.
    """
    if k < 2:
        raise ValueError("sunflower size must be at least 2")
    if len(family) < k:
        return None
    masks = family.masks()
    _check_shadow_budget(sum(1 << u.bit_count() for u in masks),
                         shadow_budget)
    bits = [1 << j for j in range(len(masks))]
    ones = (1 << len(masks)) - 1
    rows: list[dict[int, int]] = []
    starts: dict[int, list[int]] = {}
    for i, u in enumerate(masks):
        later = masks[i + 1:]
        tail = bits[i + 1:]
        row = {}
        # u has 2**|u| submasks, so a longer row must repeat a trace
        if k > 2 and len(later) <= 1 << u.bit_count():
            row = {u & v: bit for v, bit in zip(later, tail)}
            if len(row) == len(later):
                rows.append(row)
                continue
        if 2 * len(row) > len(later):
            # fewer than half the links dropped: the later bits missing
            # from the row's values (distinct bits, so sum is OR) are the
            # dropped members, and only their traces can gain links
            dropped = (ones >> i + 1 << i + 1) ^ sum(row.values())
            grown = {}
            while dropped:
                low = dropped & -dropped
                dropped ^= low
                c = u & masks[low.bit_length() - 1]
                row[c] = grown[c] = row[c] | low
        elif len(row) == 1:   # one repeated trace links every later member
            row = grown = dict.fromkeys(row, ones >> i + 1 << i + 1)
        else:
            row = grown = {}
            for v, bit in zip(later, tail):
                c = u & v
                row[c] = row.get(c, 0) | bit
        for c, linked in grown.items():
            if linked.bit_count() >= k - 1:
                starts.setdefault(c, []).append(i)
        rows.append(row)
    nodes = 0
    for core in sorted(starts,
                       key=lambda c: (c.bit_count(), _canonical_key(c))):
        for i in starts[core]:
            # an explicit depth-first search: stack[d] holds the untried
            # candidates after chosen[d], each linked to all of chosen[:d+1]
            chosen = [i]
            stack = [rows[i][core]]
            while stack:
                # a node: chosen is a partial sunflower under core
                nodes += 1
                if nodes > node_budget:
                    raise BudgetExceededError(
                        f"sunflower search exceeded {node_budget} nodes",
                        needed=nodes, budget=node_budget)
                need = k - len(chosen)
                if need == 0:
                    uni = family.universe
                    return SunflowerCertificate(
                        tuple(GroundSet(uni, masks[j]) for j in chosen),
                        GroundSet(uni, core))
                # the next pick, backtracking out of exhausted levels
                while stack:
                    candidates = stack[-1]
                    while candidates.bit_count() >= need:
                        low = candidates & -candidates
                        candidates ^= low
                        j = low.bit_length() - 1
                        narrowed = candidates & rows[j].get(core, 0)
                        if narrowed.bit_count() >= need - 1:
                            break
                    else:
                        stack.pop()
                        chosen.pop()
                        need += 1
                        continue
                    stack[-1] = candidates
                    chosen.append(j)
                    stack.append(narrowed)
                    break
    return None


def extract_disjoint_via_gamma(family: SetFamily, k: int, b,
                               shadow_budget: int = DEFAULT_SHADOW_BUDGET,
                               ) -> SunflowerCertificate | None:
    """Extract k pairwise-disjoint members from a b-spread family.

    Requires the spreadness check to pass (else raises, carrying the
    witness).  Greedy: take the canonically first remaining member and
    discard every member meeting it; with b >= k * m the spreadness
    condition on singletons caps each round's damage at m * |F| / b <=
    |F| / k members, so k rounds always complete — a stall there is a
    contract violation, not a None.  Outside that regime greedy may
    legitimately stall, returning None.

    The greedy sorts nothing.  Each pick's lowest label exceeds the last
    one's: the last pick discarded every member holding its lowest label,
    and none with a lower one remained.  So the members are bucketed by
    lowest label (``u & -u``, 0 for the empty member, which comes first)
    and the labels walked upward, each taking the canonical minimum of
    its bucket's members disjoint from the picks so far; only those
    members get a ``_canonical_key``.
    """
    if k < 2:
        raise ValueError("sunflower size must be at least 2")
    base = exact_base(b)
    report = check_gamma(family, base, budget=shadow_budget)
    if not report.holds:
        raise GammaPreconditionError(
            f"family is not {b}-spread: witness {report.witness!r}",
            report=report)
    buckets: dict[int, list[int]] = defaultdict(list)
    for u in family._mask_set:
        buckets[u & -u].append(u)
    petals: list[int] = []
    used = 0
    for low in sorted(buckets):
        if low & used:
            continue   # every member of this bucket meets a pick
        free = [u for u in buckets[low] if not u & used]
        if free:
            pick = min(free, key=_canonical_key)
            petals.append(pick)
            if len(petals) == k:
                uni = family.universe
                return SunflowerCertificate(
                    tuple(GroundSet(uni, u) for u in petals),
                    GroundSet(uni, 0))
            used |= pick
    # The damage cap needs singleton candidates, hence m >= 1; spreadness
    # then also forces |F| > b >= k, so k rounds cannot run dry.
    if family.m >= 1 and base >= k * family.m:
        raise ContractViolationError(
            "greedy disjoint extraction stalled although the "
            "spreadness regime guarantees completion")
    return None
