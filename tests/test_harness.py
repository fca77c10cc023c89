"""Tests for deterministic generation."""

from __future__ import annotations

import hashlib

import pytest

from sunflower.errors import UniverseMismatchError
from sunflower.families import SetFamily, Split, mask_labels
from sunflower.harness import (
    _unrank_on_split,
    _unrank_subset,
    generate_random_family,
)
from sunflower.rng import CounterRng


def sha_words(seed, block):
    """Independent recomputation of one counter block, in output order."""
    payload = seed.to_bytes(8, "big") + block.to_bytes(8, "big")
    digest = hashlib.sha256(payload).digest()
    return [int.from_bytes(digest[i : i + 8], "big") for i in (0, 8, 16, 24)]


def test_counter_rng_matches_hash_oracle():
    rng = CounterRng(0)
    got = [rng._next_word() for _ in range(8)]
    assert got == sha_words(0, 0) + sha_words(0, 1)
    assert got[0] == 3983162290893594069

    rng = CounterRng(1)
    assert rng._next_word() == sha_words(1, 0)[0] == 8662715124235083362


def test_counter_rng_stream_matches_hashlib_over_seeds():
    # the built-in SHA-256 the generator uses gives hashlib's stream, over
    # small, large and edge seeds, across several counter blocks
    for seed in [*range(40), 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]:
        rng = CounterRng(seed)
        assert [rng._next_word() for _ in range(12)] == [
            w for block in range(3) for w in sha_words(seed, block)]


def test_counter_rng_streams_are_independent_and_reproducible():
    a = [CounterRng(42).randrange(10) for _ in range(1)]
    rng = CounterRng(42)
    seq = [rng.randrange(10) for _ in range(6)]
    assert seq == [3, 8, 8, 6, 0, 5]
    assert a[0] == seq[0]
    other = CounterRng(43)
    assert [other.randrange(10) for _ in range(6)] != seq


def test_counter_rng_seed_validation():
    with pytest.raises(ValueError):
        CounterRng(-1)
    with pytest.raises(ValueError):
        CounterRng(1 << 64)
    CounterRng((1 << 64) - 1)


def test_randrange_bounds_and_validation():
    rng = CounterRng(7)
    for _ in range(200):
        assert 0 <= rng.randrange(13) < 13
    assert CounterRng(3).randrange(1) == 0
    with pytest.raises(ValueError):
        rng.randrange(0)
    with pytest.raises(ValueError):
        rng.randrange(-4)


def test_shuffle_is_a_permutation_with_frozen_order():
    xs = list(range(8))
    CounterRng(5).shuffle(xs)
    assert xs == [5, 2, 0, 4, 6, 7, 3, 1]
    ys = list(range(100))
    CounterRng(11).shuffle(ys)
    assert sorted(ys) == list(range(100))
    assert ys != list(range(100))


def test_sample_distinct_and_validated():
    got = CounterRng(9).sample(range(20), 5)
    assert got == [12, 14, 8, 16, 7]
    assert len(set(got)) == 5
    assert CounterRng(2).sample(range(4), 0) == []
    full = CounterRng(2).sample(range(6), 6)
    assert sorted(full) == list(range(6))
    with pytest.raises(ValueError):
        CounterRng(2).sample(range(3), 4)
    with pytest.raises(ValueError):
        CounterRng(2).sample(range(3), -1)


def test_unrank_subset_is_the_lex_bijection():
    seen = [mask_labels(_unrank_subset(5, 2, r)) for r in range(10)]
    assert seen == [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
        (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]
    # every rank hits a distinct m-subset
    all_ranks = {_unrank_subset(6, 3, r) for r in range(20)}
    assert len(all_ranks) == 20
    assert all(bin(m).count("1") == 3 for m in all_ranks)


def test_unrank_on_split_enumerates_the_product():
    split = Split.contiguous(4, 2)
    seen = [mask_labels(_unrank_on_split(split, r)) for r in range(4)]
    assert seen == [(0, 2), (0, 3), (1, 2), (1, 3)]
    big = Split.contiguous(9, 3)
    masks = {_unrank_on_split(big, r) for r in range(27)}
    assert len(masks) == 27


def test_generate_random_family_is_deterministic():
    fam = generate_random_family(8, 2, 12, seed=7)
    assert [list(s.labels()) for s in fam] == [
        [0, 1], [0, 2], [0, 4], [1, 2], [1, 3], [1, 5],
        [1, 6], [2, 5], [3, 5], [4, 6], [4, 7], [5, 7],
    ]
    again = generate_random_family(8, 2, 12, seed=7)
    assert again == fam
    assert generate_random_family(8, 2, 12, seed=8) != fam


def test_generate_random_family_complete_draws():
    fam = generate_random_family(6, 2, 15, seed=0)
    assert len(fam) == 15
    split = Split.contiguous(4, 2)
    on = generate_random_family(4, 2, 4, seed=0, on_split=split)
    assert [list(s.labels()) for s in on] == [[0, 2], [0, 3], [1, 2], [1, 3]]
    for member in on:
        assert split.strips[0] & member.bits
        assert split.strips[1] & member.bits


def test_generate_random_family_validation():
    with pytest.raises(ValueError):
        generate_random_family(6, 2, 16, seed=0)
    with pytest.raises(ValueError):
        generate_random_family(4, 5, 1, seed=0)
    with pytest.raises(ValueError):
        generate_random_family(0, 0, 1, seed=0)
    with pytest.raises(ValueError):
        generate_random_family(4, -1, 1, seed=0)
    with pytest.raises(ValueError):
        generate_random_family(6, 2, -3, seed=0)  # negative size
    with pytest.raises(ValueError):
        generate_random_family(6, 2, -3, seed=0,
                               on_split=Split.contiguous(6, 2))
    split = Split.contiguous(6, 2)
    with pytest.raises(ValueError):
        generate_random_family(6, 3, 2, seed=0, on_split=split)
    with pytest.raises(ValueError):
        generate_random_family(8, 2, 2, seed=0, on_split=split)
    with pytest.raises(ValueError):
        generate_random_family(4, 2, 5, seed=0, on_split=Split.contiguous(4, 2))


def test_generate_random_family_names_a_strip_count_mismatch():
    # a split with the stated universe but another strip count is a plain
    # ValueError naming the strip count, not a universe mismatch
    split = Split.contiguous(6, 2)
    with pytest.raises(ValueError, match="strip count 2, not the stated 3"
                       ) as info:
        generate_random_family(6, 3, 2, seed=0, on_split=split)
    assert not isinstance(info.value, UniverseMismatchError)


def test_report_families_are_valid_set_families():
    fam = generate_random_family(10, 2, 20, seed=21)
    assert isinstance(fam, SetFamily)
    assert fam.m == 2
    assert all(s.cardinality == 2 for s in fam)
