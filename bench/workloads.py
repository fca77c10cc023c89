"""The four seeded workloads: their input files, sessions and checks.

A session is the list of CLI calls a user makes to get one verdict on one
input.  Each workload builds a pool of inputs from the benchmark seed
alone (``random.Random`` seeded with a string, so the same seed gives
byte-identical files) and the timed loop cycles through the pool.  Sizes
are chosen so that one session takes tens of milliseconds, which lets a
run of a few seconds hold over a hundred sessions.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import checker

POOL = 48


@dataclass
class Entry:
    """One pool input: the CLI calls of its session and what the checker
    needs.  When ``save_to`` is set, the first call's stdout is written
    there before the next call, as a shell redirect would."""

    name: str
    steps: list[list[str]]
    data: dict = field(default_factory=dict)
    save_to: str | None = None


def _write_family(path: str, n: int, m: int, masks) -> str:
    rows = sorted(checker.labels_of(u) for u in masks)
    with open(path, "w") as fh:
        fh.write(f"universe {n} maxcard {m}\n")
        fh.writelines(" ".join(map(str, r)) + "\n" for r in rows)
    return path


# -- spread-check ------------------------------------------------------------
# Random 3-uniform families, n=30, |F|=400, spread at b=6; b = k*m keeps the
# greedy extraction in its guaranteed regime.  Time goes to restriction
# counting over the materialised shadow in gamma.

def spread_inputs(seed: int, workdir: str) -> list[Entry]:
    triples = [checker.mask_of(c) for c in combinations(range(30), 3)]
    entries = []
    for i in range(POOL):
        rng = random.Random(f"spread-check/{seed}/{i}")
        masks = rng.sample(triples, 400)
        path = _write_family(os.path.join(workdir, f"spread-{i}.txt"),
                             30, 3, masks)
        entries.append(Entry(f"spread-{i}", [
            ["check-gamma", path, "--b", "6"],
            ["find-sunflower", path, "--k", "2", "--gamma", "6"]],
            {"masks": masks}))
    return entries


def spread_check(entry: Entry, calls) -> list[str]:
    masks = entry.data["masks"]
    b = Fraction(6)
    (c0, t0), (c1, t1) = calls
    return (checker.check_gamma_report(masks, b, c0, json.loads(t0))
            + checker.check_gamma_extraction(masks, b, 2, c1,
                                             json.loads(t1) if c1 == 0 else {}))


# -- sunflower-search --------------------------------------------------------
# The (3,6) product construction on 18 labels, relabelled by a seeded
# permutation (no 3-sunflower, exhaustive search, exit 3), alternating with
# the same construction plus one random 6-set through which a 3-sunflower
# exists (early exit 0).

def _product_masks(perm: list[int]) -> list[int]:
    masks = [0]
    for g in range(6):
        masks = [u | 1 << perm[2 * g + x] for u in masks for x in (0, 1)]
    return masks


def sunflower_inputs(seed: int, workdir: str) -> list[Entry]:
    entries = []
    for i in range(POOL):
        rng = random.Random(f"sunflower-search/{seed}/{i}")
        masks = _product_masks(rng.sample(range(18), 18))
        present = i % 2 == 1
        if present:
            base = set(masks)
            while True:
                added = checker.mask_of(rng.sample(range(18), 6))
                if added not in base and checker.sunflower_through(
                        masks + [added], added):
                    break
            masks = masks + [added]
        path = _write_family(os.path.join(workdir, f"sunflower-{i}.txt"),
                             18, 6, masks)
        entries.append(Entry(f"sunflower-{i}",
                             [["find-sunflower", path, "--k", "3"]],
                             {"masks": masks, "present": present}))
    return entries


def sunflower_check(entry: Entry, calls) -> list[str]:
    (code, text), = calls
    return checker.check_exact_search(entry.data["masks"], 3,
                                      entry.data["present"], code,
                                      json.loads(text))


# -- engine-fixpoint ---------------------------------------------------------
# Random one-per-strip families on the contiguous 3-split of 24 labels,
# |F|=300, with the surrogate constants of the engine's test corpus.

CONSTANTS = {"epsilon": 0.995, "h": 1.0005, "c": 1.001, "k": 2, "m": 3}


def engine_inputs(seed: int, workdir: str) -> list[Entry]:
    cpath = os.path.join(workdir, "constants.json")
    with open(cpath, "w") as fh:
        json.dump(CONSTANTS, fh, sort_keys=True)
    entries = []
    for i in range(POOL):
        rng = random.Random(f"engine-fixpoint/{seed}/{i}")
        masks = [1 << (r // 64) | 1 << (8 + r // 8 % 8) | 1 << (16 + r % 8)
                 for r in rng.sample(range(512), 300)]
        path = _write_family(os.path.join(workdir, f"engine-{i}.txt"),
                             24, 3, masks)
        entries.append(Entry(f"engine-{i}",
                             [["process-r", path, "--constants", cpath]],
                             {"masks": masks}))
    return entries


def engine_check(entry: Entry, calls) -> list[str]:
    (code, text), = calls
    return checker.check_process_r(entry.data["masks"], 24, code,
                                   json.loads(text) if code == 0 else {})


# -- split-search ------------------------------------------------------------
# gen-random writes a 30-member 3-uniform family on 9 labels, then the
# exhaustive split search (280 splits), the seeded random one, and the
# transversal identity at j=2 (1680 tuples).  No shadow or restriction
# counting: the bypass workload for the counting kernel.

def split_inputs(seed: int, workdir: str) -> list[Entry]:
    entries = []
    for i in range(POOL):
        digest = hashlib.sha256(f"split-search/{seed}/{i}".encode()).digest()
        gen_seed = str(int.from_bytes(digest[:4], "big"))
        path = os.path.join(workdir, f"split-{i}.json")
        entries.append(Entry(f"split-{i}", [
            ["gen-random", "--n", "9", "--m", "3", "--size", "30",
             "--seed", gen_seed, "--json"],
            ["split", path],
            ["split", path, "--mode", "random", "--seed", gen_seed],
            ["transversal-check", path, "--j", "2"]], save_to=path))
    return entries


def split_check(entry: Entry, calls) -> list[str]:
    (c0, t0), (c1, t1), (c2, t2), (c3, t3) = calls
    if c0 != 0:
        return [f"gen-random exit {c0}"]
    generated = json.loads(t0)
    problems = checker.check_generated(generated, 9, 3, 30)
    if problems:
        return problems
    masks = [checker.mask_of(s) for s in generated["sets"]]
    best = max(len(checker.retained_by(masks, blocks))
               for blocks in checker.partitions(9, 3))
    return (checker.check_split(masks, 9, 3, best, True, c1,
                                json.loads(t1) if c1 == 0 else {})
            + checker.check_split(masks, 9, 3, best, False, c2,
                                  json.loads(t2) if c2 == 0 else {})
            + checker.check_transversal(masks, 9, 3, 2, c3,
                                        json.loads(t3) if c3 == 0 else {}))


@dataclass(frozen=True)
class Workload:
    name: str
    make: object
    check: object


WORKLOADS = {w.name: w for w in (
    Workload("spread-check", spread_inputs, spread_check),
    Workload("sunflower-search", sunflower_inputs, sunflower_check),
    Workload("engine-fixpoint", engine_inputs, engine_check),
    Workload("split-search", split_inputs, split_check),
)}
