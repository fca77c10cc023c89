"""Largest known k-sunflower-free families of m-sets: size (k-1)^m.

Generation g (1-based) contributes the fresh labels
(g-1)*(k-1) .. g*(k-1)-1; each member picks exactly one label per
generation, so the family is the full one-per-strip product over the
natural split into generations.  No k members can pairwise agree: in the
first generation where a would-be core is absent, k members must take k
distinct values among k-1 labels.
"""

from __future__ import annotations

from .errors import BudgetExceededError
from .families import SetFamily, Universe

DEFAULT_EXTREMAL_BUDGET = 1 << 20


def build_extremal(k: int, m: int,
                   budget: int = DEFAULT_EXTREMAL_BUDGET) -> SetFamily:
    """Build the product construction; |family| = (k-1)^m on (k-1)*m labels."""
    if k < 2:
        raise ValueError("sunflower size must be at least 2")
    if m < 1:
        raise ValueError("member cardinality must be at least 1")
    size = (k - 1) ** m
    if size > budget:
        raise BudgetExceededError(
            f"construction of {size} sets exceeds budget {budget}",
            needed=size, budget=budget)
    masks = [0]
    for g in range(m):
        fresh = range(g * (k - 1), (g + 1) * (k - 1))
        masks = [u | 1 << x for u in masks for x in fresh]
    return SetFamily(Universe((k - 1) * m), masks, m=m)
