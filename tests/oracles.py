"""Brute-force oracles shared by the tests.

They are deliberately independent of the fast paths they check: nothing
here goes through the subset-bucket kernel or the pruned searches.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from sunflower.errors import BudgetExceededError
from sunflower.families import DEFAULT_SHADOW_BUDGET, SetFamily

DEFAULT_ORACLE_BUDGET = 1 << 20


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

