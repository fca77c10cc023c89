"""k-sunflower detection, verification, and greedy disjoint extraction.

A k-sunflower (Delta-system) is k distinct sets whose pairwise
intersections all equal one common core.  Detection buckets candidate
petals by core: for a core T, sets containing T form a sunflower with core
exactly T iff their T-removed parts are pairwise disjoint, so a
backtracking disjointness search over each bucket is complete.

The extraction route needs no search at all: when the family is b-spread
for b >= k * m, greedily picking a member and discarding everything it
meets must survive k rounds, because the spreadness condition caps how
many members any one element can kill.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (BudgetExceededError, ContractViolationError,
                     GammaPreconditionError)
from .families import DEFAULT_SHADOW_BUDGET, GroundSet, SetFamily, mask_labels
from .gamma import check_gamma, exact_base

DEFAULT_SEARCH_NODE_BUDGET = 1 << 22


@dataclass(frozen=True)
class SunflowerCertificate:
    """k petals claimed to intersect pairwise in exactly ``core``.

    The constructor checks only shape (at least two petals, one universe);
    the combinatorial claim is checked by :func:`verify_certificate`, so a
    bad certificate is representable and verifiably bad.
    """

    petals: tuple[GroundSet, ...]
    core: GroundSet

    def __post_init__(self):
        if len(self.petals) < 2:
            raise ValueError("a sunflower needs at least 2 petals")
        for p in self.petals:
            if p.universe.n != self.core.universe.n:
                raise ValueError("petals and core must share a universe")

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

    Candidate cores are the family's shadow in (cardinality, lexicographic)
    order, each with its bucket of members from the family's subset map
    (``shadow_budget`` caps its sum(2**|U|) entries); within a core's
    bucket, petals are chosen by backtracking over the canonical member
    order, so the first certificate found is deterministic.
    ``node_budget`` caps total backtracking nodes.
    """
    if k < 2:
        raise ValueError("sunflower size must be at least 2")
    if len(family) < k:
        return None
    buckets = family.subset_map(shadow_budget)
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
            petals = tuple(uni.from_bits(b | core) for b in chosen)
            return SunflowerCertificate(petals, uni.from_bits(core))
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
    """
    if k < 2:
        raise ValueError("sunflower size must be at least 2")
    base = exact_base(b)
    report = check_gamma(family, base, budget=shadow_budget)
    if not report.holds:
        raise GammaPreconditionError(
            f"family is not {b}-spread: witness {report.witness!r}",
            report=report)
    # The damage cap needs singleton candidates, hence m >= 1; spreadness
    # then also forces |F| > b >= k, so k rounds cannot run dry.
    guaranteed = family.m >= 1 and base >= k * family.m
    remaining = list(family.members)
    petals: list[GroundSet] = []
    for _ in range(k):
        if not remaining:
            if guaranteed:
                raise ContractViolationError(
                    "greedy disjoint extraction stalled although the "
                    "spreadness regime guarantees completion")
            return None
        pick = remaining[0]
        petals.append(pick)
        remaining = [u for u in remaining if u.isdisjoint(pick) and u != pick]
    return SunflowerCertificate(tuple(petals), family.universe.empty)
