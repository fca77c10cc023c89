"""Random test-input generation and the empirical bound experiment.

Everything here is driven by the counter-based generator in
:mod:`sunflower.rng`, so a (seed, parameters) pair reproduces the same
family or experiment on any platform.  Uniformity over m-subsets comes
from unranking: subsets correspond to integers below C(n, m) in
lexicographic order, and distinct uniform ranks give distinct uniform
subsets.
"""

from __future__ import annotations

from math import comb

from .errors import BudgetExceededError
from .extremal import build_extremal
from .families import SetFamily, Split, Universe, mask_labels, pad_universe
from .rng import CounterRng
from .sunflowers import DEFAULT_SEARCH_NODE_BUDGET, find_sunflower_exact

MATERIALIZE_LIMIT = 1 << 20


def _unrank_subset(n: int, m: int, rank: int) -> int:
    """Mask of the rank-th m-subset of {0..n-1} in lexicographic order."""
    mask = 0
    x = 0
    for need in range(m, 0, -1):
        while comb(n - x - 1, need - 1) <= rank:
            rank -= comb(n - x - 1, need - 1)
            x += 1
        mask |= 1 << x
        x += 1
    return mask


def _unrank_on_split(split: Split, rank: int) -> int:
    """Mask of the rank-th one-per-strip set, strips as base-d digit places."""
    d = split.strip_size
    mask = 0
    for i in range(split.m - 1, -1, -1):
        rank, digit = divmod(rank, d)
        mask |= 1 << mask_labels(split.strips[i])[digit]
    return mask


def _distinct_ranks(space: int, size: int, rng: CounterRng) -> list[int]:
    if size > space:
        raise ValueError(f"cannot draw {size} distinct sets from {space}")
    # dense draws from a small space: sample without replacement directly
    if space <= MATERIALIZE_LIMIT and size > space // 2:
        return rng.sample(range(space), size)
    seen: set[int] = set()
    out = []
    while len(out) < size:
        r = rng.randrange(space)
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def generate_random_family(n: int, m: int, size: int, seed: int,
                           on_split: Split | None = None) -> SetFamily:
    """Uniform family of ``size`` distinct m-sets, deterministic per seed.

    With ``on_split`` the sets are one-per-strip sets of that split
    (requiring its universe size n and strip count m).
    """
    if m < 0 or n < 1 or size < 0:
        raise ValueError("need n >= 1, m >= 0 and size >= 0")
    if on_split is not None:
        if on_split.universe.n != n or on_split.m != m:
            raise ValueError("split must have the stated universe and strip count")
        space = on_split.strip_size ** m
    else:
        if m > n:
            raise ValueError(f"cannot pick {m}-sets from {n} labels")
        space = comb(n, m)
    rng = CounterRng(seed)
    ranks = _distinct_ranks(space, size, rng)
    if on_split is not None:
        masks = [_unrank_on_split(on_split, r) for r in ranks]
    else:
        masks = [_unrank_subset(n, m, r) for r in ranks]
    return SetFamily(Universe(n), masks, m=m)


EXPERIMENT_LABEL = ("empirical: appearance thresholds relative to the "
                    "(k-1)^m construction floor; the conjectured "
                    "constant-factor bound is not tested")


def verify_bound_experiment(k_values: list[int], m_values: list[int],
                            trials: int, seed: int,
                            node_budget: int = DEFAULT_SEARCH_NODE_BUDGET,
                            ) -> dict:
    """Probe how many random m-sets a (k-1)^m-size baseline absorbs before
    a k-sunflower appears.

    For each (k, m): confirm the product construction is k-sunflower-free,
    embed it in a universe of k*m labels, then per trial add uniform
    distinct m-sets one at a time until exact search finds a k-sunflower,
    recording the family size at first appearance.  Rows whose searches
    blow the node budget are marked, not fatal.  Returns the report's
    results, ``{"label", "rows"}``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = CounterRng(seed)
    rows = []
    for k in k_values:
        for m in m_values:
            baseline = build_extremal(k, m)
            n = k * m
            base_family = pad_universe(baseline.family, n)
            row = {"k": k, "m": m, "baselineSize": len(base_family),
                   "baselineFree": None, "thresholds": [],
                   "budgetExceeded": False}
            try:
                row["baselineFree"] = find_sunflower_exact(
                    base_family, k, node_budget=node_budget) is None
                space = comb(n, m)
                for _ in range(trials):
                    masks = set(base_family.masks())
                    while True:
                        if len(masks) == space:
                            raise BudgetExceededError(
                                "family space exhausted without a sunflower")
                        new = _unrank_subset(n, m, rng.randrange(space))
                        if new not in masks:
                            masks.add(new)
                            grown = SetFamily(Universe(n), masks, m=m)
                            if find_sunflower_exact(
                                    grown, k, node_budget=node_budget):
                                row["thresholds"].append(len(masks))
                                break
            except BudgetExceededError:
                row["budgetExceeded"] = True
            rows.append(row)
    return {"label": EXPERIMENT_LABEL, "rows": rows}
