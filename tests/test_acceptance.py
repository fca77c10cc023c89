"""Acceptance suite: one verdict line per top-level guarantee.

Each test exercises one externally stated guarantee end to end and
prints exactly one ``ACCEPTANCE <name>: PASS|FAIL`` line (visible under
``pytest -s``).  Guarantees with a stated time budget also fail when the
budget is exceeded.  Violations are collected and reported together so
a failing run shows every broken case, not just the first.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from sunflower import basesets as bs
from sunflower.extremal import build_extremal
from sunflower.families import (GroundSet, SetFamily, Split, labels_mask,
                                mask_labels)
from sunflower.gamma import check_gamma
from sunflower.harness import generate_random_family
from sunflower.splits import find_good_split, transversal_count_brute, \
    transversal_formula
from sunflower.sunflowers import extract_disjoint_via_gamma, \
    find_sunflower_exact, verify_certificate

from oracles import meets_eps_floor, meets_threshold


def _verdict(name: str, problems: list[str], elapsed: float,
             limit: float | None = None) -> None:
    if limit is not None and elapsed > limit:
        problems.append(f"runtime {elapsed:.2f}s exceeds the {limit:.0f}s budget")
    status = "FAIL" if problems else "PASS"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s)")
    for item in problems:
        print(f"  - {item}")
    assert not problems, f"{name}: {len(problems)} violation(s)"


def test_extremal_baseline():
    """Largest-known constructions have exactly (k-1)^m sets and no k-sunflower."""
    t0 = time.perf_counter()
    problems: list[str] = []
    pairs = [(k, m) for k in range(2, 6) for m in range(1, 5)
             if (k - 1) ** m <= 256]
    assert len(pairs) == 16
    for k, m in pairs:
        family = build_extremal(k, m)
        if len(family) != (k - 1) ** m:
            problems.append(f"k={k} m={m}: size {len(family)} != {(k-1)**m}")
        cert = find_sunflower_exact(family, k)
        if cert is not None:
            problems.append(f"k={k} m={m}: construction contains a {k}-sunflower")
    _verdict("extremal-baseline", problems, time.perf_counter() - t0, limit=10.0)


def test_transversal_identity():
    """Closed-form transversal count equals brute enumeration, exactly."""
    t0 = time.perf_counter()
    problems: list[str] = []
    cases = 0

    worked = SetFamily.of(4, [list(c) for c in itertools.combinations(range(4), 2)])
    brute = transversal_count_brute(worked, 1)
    formula = transversal_formula(worked, 1)
    if brute != 24 or formula != Fraction(24):
        problems.append(f"worked case: brute={brute} formula={formula}, want 24")
    cases += 1

    shapes = [(n, 1) for n in range(2, 11)] + [(n, 2) for n in (4, 6, 8, 10)]
    for n, m in shapes:
        space = math.comb(n, m)
        reps = 3 if m == 1 else 6
        for i in range(reps):
            size = 1 + (7 * i + n) % space
            fam = generate_random_family(n, m, size, seed=3000 + 100 * n + i)
            cases += 1
            for j in range(m):
                b = transversal_count_brute(fam, j)
                f = transversal_formula(fam, j)
                if Fraction(b) != f:
                    problems.append(
                        f"n={n} m={m} size={size} j={j}: brute {b} != formula {f}")
    if cases < 50:
        problems.append(f"only {cases} families tested, need at least 50")
    _verdict("transversal-identity", problems, time.perf_counter() - t0,
             limit=30.0)


def test_split_retention():
    """Exhaustive split search meets the averaging bound, which beats |F|e^-m."""
    t0 = time.perf_counter()
    problems: list[str] = []
    shapes = [(6, 1), (12, 1), (4, 2), (6, 2), (8, 2), (10, 2), (12, 2),
              (6, 3), (9, 3), (12, 3)]
    for n, m in shapes:
        space = math.comb(n, m)
        for i in range(3):
            size = 1 + (11 * i + 5 * n) % min(space, 50)
            fam = generate_random_family(n, m, size, seed=4000 + 100 * n + i)
            result = find_good_split(fam, mode="exhaustive")
            d = n // m
            bound = Fraction(d ** m * len(fam), space)
            if result.bound != bound:
                problems.append(f"n={n} m={m} size={size}: reported bound "
                                f"{result.bound} != {bound}")
            if Fraction(len(result.retained)) < bound:
                problems.append(f"n={n} m={m} size={size}: retained "
                                f"{len(result.retained)} below {bound}")
            if not float(bound) > len(fam) * math.exp(-m):
                problems.append(f"n={n} m={m} size={size}: bound {float(bound)} "
                                f"not above the e^-{m} floor")
    _verdict("split-retention", problems, time.perf_counter() - t0, limit=60.0)


def _brute_spread_holds(family: SetFamily, b: Fraction) -> bool:
    # independent double loop: count every nonempty subset of every member
    counts: dict[int, int] = {}
    for w in family.masks():
        sub = w
        while sub:
            counts[sub] = counts.get(sub, 0) + 1
            sub = (sub - 1) & w
    size = len(family)
    for u, deg in counts.items():
        if deg * b ** u.bit_count() >= size:
            return False
    return True


def test_spreadness_oracle():
    """check_gamma matches a brute-force scan and is monotone in b."""
    t0 = time.perf_counter()
    problems: list[str] = []
    grid = [Fraction(6, 5), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5)]
    combos = [(n, m) for n in (4, 6, 8, 10, 12) for m in (1, 2, 3)]
    families = 0
    for i in range(200):
        n, m = combos[i % len(combos)]
        space = math.comb(n, m)
        size = 1 + (13 * i) % min(space, 60)
        fam = generate_random_family(n, m, size, seed=9000 + i)
        shadow = fam.shadow()
        if len(shadow) > 1 << 14:
            problems.append(f"case {i}: shadow {len(shadow)} over the cap")
            continue
        families += 1
        verdicts = []
        for b in grid:
            report = check_gamma(fam, b)
            brute = _brute_spread_holds(fam, b)
            if report.holds != brute:
                problems.append(f"case {i} (n={n} m={m} size={size} b={b}): "
                                f"oracle {report.holds} vs brute {brute}")
            verdicts.append(report.holds)
        for lo, hi in zip(verdicts, verdicts[1:]):
            if hi and not lo:
                problems.append(f"case {i}: spreadness not monotone on {grid}")
    if families < 200:
        problems.append(f"only {families} families checked, need 200")
    _verdict("spreadness-oracle", problems, time.perf_counter() - t0, limit=60.0)


def test_disjoint_extraction():
    """Spread families always yield k pairwise-disjoint members greedily."""
    t0 = time.perf_counter()
    problems: list[str] = []
    cells = [
        (2, 1, 12, 10), (3, 1, 12, 10), (4, 1, 12, 10),
        (2, 2, 12, 30), (3, 2, 24, 70), (4, 2, 24, 100),
        (2, 3, 30, 250), (3, 3, 36, 850), (4, 3, 54, 2100),
    ]
    total = 0
    for k, m, n, size in cells:
        b = Fraction(k * m)
        found = 0
        for t in range(30):
            fam = generate_random_family(n, m, size, seed=1000 * k + 100 * m + t)
            if len(fam) < k or not check_gamma(fam, b).holds:
                continue
            found += 1
            total += 1
            cert = extract_disjoint_via_gamma(fam, k, b)
            if cert is None:
                problems.append(f"k={k} m={m} seed offset {t}: extraction "
                                "stalled on a spread family")
                continue
            petals = cert.petals
            members = set(fam.masks())
            if len(petals) != k:
                problems.append(f"k={k} m={m}: {len(petals)} petals, want {k}")
            if any(p.bits not in members for p in petals):
                problems.append(f"k={k} m={m}: petal outside the family")
            for a, c in itertools.combinations(petals, 2):
                if a.bits & c.bits:
                    problems.append(f"k={k} m={m}: petals {a.labels()} and "
                                    f"{c.labels()} overlap")
            if not verify_certificate(cert):
                problems.append(f"k={k} m={m}: certificate failed verification")
            if found == 6:
                break
        if found < 6:
            problems.append(f"k={k} m={m}: only {found} spread families in 30 draws")
    if total < 50:
        problems.append(f"only {total} instances, need at least 50")
    _verdict("disjoint-extraction", problems, time.perf_counter() - t0)


def _product_family(d: int, m: int) -> SetFamily:
    strips = [range(i * d, (i + 1) * d) for i in range(m)]
    return SetFamily.of(d * m, [list(t) for t in itertools.product(*strips)], m=m)


_CORPUS: list[tuple[str, SetFamily, Split, bs.Constants]] | None = None


def engine_corpus() -> list[tuple[str, SetFamily, Split, bs.Constants]]:
    """Desk-scale engine inputs (n <= 16, m <= 3, at most 500 members)."""
    global _CORPUS
    if _CORPUS is not None:
        return _CORPUS
    entries = []

    def surrogate(k, m, fam_size):
        return bs.Constants(0.995, 1.0005, 1.001, k, m, fam_size)

    for d, m in [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2),
                 (2, 3), (3, 3), (4, 3), (5, 3), (4, 1), (8, 1), (16, 1)]:
        fam = _product_family(d, m)
        entries.append((f"product d={d} m={m}", fam, Split.contiguous(d * m, m),
                        surrogate(2, m, len(fam))))

    for n, m, size, seed in [(16, 2, 40, 3), (16, 2, 50, 4), (16, 2, 60, 5),
                             (12, 2, 12, 6), (8, 2, 10, 7), (15, 3, 80, 8),
                             (15, 3, 100, 9), (12, 3, 40, 10), (6, 3, 6, 11),
                             (16, 1, 12, 12), (10, 2, 20, 13), (14, 2, 30, 14)]:
        split = Split.contiguous(n, m)
        fam = generate_random_family(n, m, size, seed, on_split=split)
        entries.append((f"random n={n} m={m} size={size} seed={seed}", fam,
                        split, surrogate(2, m, len(fam))))

    planted = SetFamily.of(8, [[0, 4], [0, 5], [0, 6], [0, 7]])
    entries.append(("planted star, inflated target", planted,
                    Split.contiguous(8, 2),
                    bs.Constants(0.9, 1.2, 1.5, 2, 2, 324)))
    wide = _product_family(8, 2)
    entries.append(("product d=8 k=3, inflated target", wide,
                    Split.contiguous(16, 2), surrogate(3, 2, 2800)))
    entries.append(("product d=8 k=4", wide, Split.contiguous(16, 2),
                    surrogate(4, 2, 64)))
    partial = SetFamily.of(15, [[0, y, z] for y in range(5, 10)
                                for z in range(10, 15)])
    entries.append(("anchored 5x5 grid, inflated target", partial,
                    Split.contiguous(15, 3),
                    bs.Constants(0.9, 1.2, 1.5, 2, 3, 720)))

    for label, fam, split, cfg in entries:
        assert fam.universe.n <= 16 and cfg.m <= 3 and len(fam) <= 500, label
    assert len(entries) >= 25
    _CORPUS = entries
    return entries


def test_engine_output_contract():
    """One engine call: size floor, clean partition, per-rank conditions."""
    t0 = time.perf_counter()
    problems: list[str] = []
    for label, fam, split, cfg in engine_corpus():
        collection = bs.ComponentCollection.initial(fam, split)
        try:
            out = bs.base_sets(collection, cfg)
        except bs.ContractViolationError as exc:
            problems.append(f"{label}: engine gave up ({exc})")
            continue

        if len(out.family) * 3 ** (cfg.m - out.r + 1) < len(fam):
            problems.append(f"{label}: kept {len(out.family)} of {len(fam)} "
                            f"at rank {out.r}, below the 3^-(m'-r+1) floor")

        masks = [w for part in out.parts for w in part.T]
        if len(set(masks)) != len(masks):
            problems.append(f"{label}: parts overlap")
        if sorted(masks) != sorted(out.family.masks()):
            problems.append(f"{label}: parts do not union to the output family")

        if out.r < cfg.m:
            # every surviving bucket must sit below the full-rank threshold
            by_key: dict[tuple[int, ...], list[int]] = {}
            for part in out.parts:
                by_key.setdefault(part.key, []).extend(part.T)
            for key, group in by_key.items():
                for u in fam.masks():
                    bucket = sum(1 for w in group if w & u == u)
                    if meets_threshold(cfg, bucket, cfg.m):
                        problems.append(f"{label}: component {key} keeps a "
                                        f"bucket of {bucket} at rank {out.r}")
        if out.r == 0:
            # unreachable for inputs this small, but guarded regardless
            for key, group in _group_parts(out):
                comp = SetFamily(fam.universe, group, m=cfg.m)
                if not meets_eps_floor(cfg, len(comp)):
                    problems.append(f"{label}: rank-0 component below the "
                                    "epsilon floor")
                if not check_gamma(comp, Fraction(cfg.b)).holds:
                    problems.append(f"{label}: rank-0 component not spread")
    _verdict("engine-output-contract", problems, time.perf_counter() - t0)


def _group_parts(out: bs.BaseSetsOutput):
    by_key: dict[tuple[int, ...], list[int]] = {}
    for part in out.parts:
        by_key.setdefault(part.key, []).extend(part.T)
    return by_key.items()


def test_engine_iteration_audit():
    """Driver loop: call count, rank descent, size floors, final sandwich."""
    t0 = time.perf_counter()
    problems: list[str] = []
    for label, fam, split, cfg in engine_corpus():
        try:
            result = bs.process_r(fam, split, cfg)
        except bs.ContractViolationError as exc:
            problems.append(f"{label}: driver gave up ({exc})")
            continue

        if len(result.steps) > cfg.m + 1:
            problems.append(f"{label}: {len(result.steps)} calls, cap {cfg.m + 1}")
        for i, step in enumerate(result.steps):
            terminal = i == len(result.steps) - 1
            if not terminal and not step.output.r < step.r_in:
                problems.append(f"{label}: call {step.p} kept rank {step.r_in}")
            if i and result.steps[i - 1].output.r != step.r_in:
                problems.append(f"{label}: rank chain broken at call {step.p}")
            if len(step.output.family) * 3 ** (2 * cfg.m) < cfg.fam_size:
                problems.append(f"{label}: call {step.p} output of "
                                f"{len(step.output.family)} breaks the 3^-2m floor")

        audit = bs.audit_terminal_bases(result, fam, cfg)
        if not audit["all_sandwich_ok"]:
            problems.append(f"{label}: sandwich flag is down")
        for row in audit["parts"]:
            core = GroundSet(fam.universe, labels_mask(row["C"]))
            restriction = len(fam.restrict(core))
            if restriction != row["restriction"]:
                problems.append(f"{label}: audit restriction {row['restriction']} "
                                f"!= recount {restriction} for {row['C']}")
            if not (row["lower_ok"] and row["upper_ok"]):
                problems.append(f"{label}: sandwich fails at {row['C']}")
            if not meets_threshold(cfg, row["sizeT"], result.r_hat):
                problems.append(f"{label}: |T|={row['sizeT']} below f(r) "
                                f"at {row['C']}")
            if row["sizeT"] > restriction:
                problems.append(f"{label}: |T|={row['sizeT']} exceeds "
                                f"|F[C]|={restriction}")
    _verdict("engine-iteration-audit", problems, time.perf_counter() - t0)


# sha256 of the driver's trace rows, terminal parts (base labels, key,
# member masks, variant) and audit over engine_corpus(): any change to the
# scan order, the thresholds, the part contents or the audit moves it
ENGINE_CORPUS_DIGEST = \
    "17092b98cf68f8d013c860a969fb7289f22644b1b121a513cbc802243c76893b"


def test_engine_corpus_digest():
    """process_r traces, parts and audits over the corpus are pinned."""
    rows = []
    for label, fam, split, cfg in engine_corpus():
        result = bs.process_r(fam, split, cfg)
        parts = [[list(mask_labels(part.B)), list(part.key), list(part.T),
                  part.variant] for part in result.parts_hat]
        rows.append([label, list(result.trace), parts,
                     bs.audit_terminal_bases(result, fam, cfg)])
    digest = hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == ENGINE_CORPUS_DIGEST


def test_bound_disclaimer():
    """The conjectured constant-factor bound is reported as out of reach."""
    t0 = time.perf_counter()
    problems: list[str] = []

    # the canonical constant schedule explodes: the guarantee's population
    # requirement dwarfs any desk-scale family even at friendly epsilon
    cfg = bs.canonical_constants(0.5, 2, 2, 500)
    required = (cfg.c * cfg.k * math.log(cfg.k + 1)) ** cfg.m
    if required < 1e6:
        problems.append(f"population requirement {required:.3g} is "
                        "unexpectedly reachable")
    with pytest.raises(ValueError):
        bs.canonical_constants(0.15, 2, 2, 500)

    _verdict("bound-disclaimer", problems, time.perf_counter() - t0)
