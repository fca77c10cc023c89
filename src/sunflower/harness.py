"""Random test-input generation.

Everything here is driven by the counter-based generator in
:mod:`sunflower.rng`, so a (seed, parameters) pair reproduces the same
family on any platform.  Uniformity over m-subsets comes from unranking:
subsets correspond to integers below C(n, m) in lexicographic order, and
distinct uniform ranks give distinct uniform subsets.
"""

from __future__ import annotations

from math import comb

from .errors import UniverseMismatchError
from .families import SetFamily, Split, Universe, mask_labels
from .rng import CounterRng

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
        if on_split.universe.n != n:
            raise UniverseMismatchError(
                f"split over universe {on_split.universe.n}, not {n}")
        if on_split.m != m:
            raise ValueError(
                f"split has strip count {on_split.m}, not the stated {m}")
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

