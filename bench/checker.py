"""Independent verdict checker for benchmark sessions.

Nothing here imports the package under test: every expected value is
recomputed from the input family with the standard library alone, in
exact integer or rational arithmetic.  Each ``check_*`` function takes the
input family as a list of bit masks plus the parsed report and returns a
list of problems; an empty list means the report is correct.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb


def mask_of(labels) -> int:
    mask = 0
    for x in labels:
        mask |= 1 << x
    return mask


def labels_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def subset_counts(masks) -> dict[int, int]:
    """|F[S]| for every nonempty S in the shadow, by submask enumeration."""
    counts: dict[int, int] = {}
    for u in masks:
        s = u
        while s:
            counts[s] = counts.get(s, 0) + 1
            s = (s - 1) & u
    return counts


def gamma_verdict(masks, b: Fraction):
    """(holds, max ratio, witness labels) for spreadness at base b.

    The ratio count * b^|S| / |F| is compared as count * p^|S| against
    |F| * q^|S| for b = p/q; the witness is the label-least maximizer.
    """
    total = len(masks)
    p, q = b.numerator, b.denominator
    best_num, best_den, best_labels = 0, 1, None
    for s, count in subset_counts(masks).items():
        k = s.bit_count()
        num, den = count * p ** k, total * q ** k
        cmp = num * best_den - best_num * den
        if cmp > 0 or (cmp == 0 and best_labels is not None
                       and labels_of(s) < best_labels):
            best_num, best_den, best_labels = num, den, labels_of(s)
    holds = best_num < best_den
    return holds, Fraction(best_num, best_den), None if holds else best_labels


def _sets_problems(sets, n: int, what: str) -> list[str]:
    masks = []
    for s in sets:
        if list(s) != sorted(set(s)) or not all(0 <= x < n for x in s):
            return [f"{what}: malformed set {s}"]
        masks.append(mask_of(s))
    if len(set(masks)) != len(masks):
        return [f"{what}: repeated set"]
    return []


def check_gamma_report(masks, b: Fraction, code: int,
                       report: dict) -> list[str]:
    """check-gamma: verdict, exact ratio and witness against the count map."""
    if code != 0:
        return [f"check-gamma exit {code}"]
    res = report["results"]
    holds, ratio, witness = gamma_verdict(masks, b)
    problems = []
    if res["holds"] is not holds:
        problems.append(f"check-gamma holds={res['holds']}, expected {holds}")
    num, den = res["ratio"]
    if num * ratio.denominator != den * ratio.numerator:
        problems.append(f"check-gamma ratio {num}/{den}, expected {ratio}")
    got = None if res["witness"] is None else tuple(res["witness"])
    if got != witness:
        problems.append(f"check-gamma witness {got}, expected {witness}")
    if report["inputs"]["familySize"] != len(masks):
        problems.append("check-gamma familySize echo differs")
    return problems


def certificate_problems(masks, cert: dict | None, k: int,
                         core_labels=None) -> list[str]:
    """Petals are k distinct family members meeting pairwise in the core."""
    if cert is None:
        return ["certificate missing"]
    members = set(masks)
    petals = [mask_of(p) for p in cert["petals"]]
    core = mask_of(cert["core"])
    problems = []
    if len(petals) != k:
        problems.append(f"certificate has {len(petals)} petals, expected {k}")
    if len(set(petals)) != len(petals):
        problems.append("certificate petals repeat")
    if not all(p in members for p in petals):
        problems.append("certificate petal outside the family")
    if not all(a & b == core for a, b in combinations(petals, 2)):
        problems.append("certificate petals do not meet in the core")
    if core_labels is not None and core != mask_of(core_labels):
        problems.append("certificate core differs from the requested one")
    return problems


def check_gamma_extraction(masks, b: Fraction, k: int, code: int,
                           report: dict) -> list[str]:
    """find-sunflower --gamma: k disjoint members when spread, else exit 5.

    The expected exit code for a spread family is 0 here because every
    workload keeps b >= k * m, where greedy extraction cannot stall.
    """
    holds, _, _ = gamma_verdict(masks, b)
    if not holds:
        return [] if code == 5 else [f"extraction exit {code}, expected 5"]
    if code != 0:
        return [f"extraction exit {code}, expected 0"]
    res = report["results"]
    problems = certificate_problems(masks, res.get("certificate"), k, [])
    if res.get("found") is not True or res.get("verified") is not True:
        problems.append("extraction not reported as found and verified")
    return problems


def sunflower_through(masks, added: int, k: int = 3) -> bool:
    """True iff some k-sunflower contains ``added``; brute force over the
    (k-1)-subsets of the other members."""
    others = [u for u in masks if u != added]
    for rest in combinations(others, k - 1):
        petals = (added,) + rest
        core = petals[0] & petals[1]
        if all(a & b == core for a, b in combinations(petals, 2)):
            return True
    return False


def check_exact_search(masks, k: int, present: bool, code: int,
                       report: dict) -> list[str]:
    """find-sunflower (exact): exit 3 and no certificate when absent; exit 0
    and a valid certificate when present."""
    res = report["results"]
    if not present:
        if code != 3:
            return [f"exact search exit {code}, expected 3"]
        if res["found"] or not res["provenAbsent"] or res["certificate"]:
            return ["exact search did not report proven absence"]
        return []
    if code != 0:
        return [f"exact search exit {code}, expected 0"]
    problems = certificate_problems(masks, res.get("certificate"), k)
    if res.get("found") is not True or res.get("verified") is not True:
        problems.append("exact search not reported as found and verified")
    return problems


def partitions(n: int, m: int):
    """Every unordered partition of range(n) into m blocks of size n/m,
    each as a tuple of block masks."""
    d = n // m

    def rec(remaining: tuple[int, ...], blocks: tuple[int, ...]):
        if not remaining:
            yield blocks
            return
        first, rest = remaining[0], remaining[1:]
        for extra in combinations(rest, d - 1):
            left = tuple(x for x in rest if x not in extra)
            yield from rec(left, blocks + (mask_of((first,) + extra),))

    yield from rec(tuple(range(n)), ())


def retained_by(masks, blocks) -> list[int]:
    return [u for u in masks if all((u & b).bit_count() == 1 for b in blocks)]


def split_bound(n: int, m: int, size: int) -> Fraction:
    d = n // m
    return Fraction(d ** m * size, comb(n, m))


def check_split(masks, n: int, m: int, exhaustive_max: int, exhaustive: bool,
                code: int, report: dict) -> list[str]:
    """split: a valid partition whose retained members are recomputed; at
    least the averaging bound, and equal to the exhaustive maximum in
    exhaustive mode."""
    if code != 0:
        return [f"split exit {code}"]
    res = report["results"]
    blocks = [mask_of(s) for s in res["split"]]
    problems = []
    if (len(blocks) != m or sorted(b.bit_count() for b in blocks) != [n // m] * m
            or sum(blocks) != (1 << n) - 1
            or any(a & b for a, b in combinations(blocks, 2))):
        return ["split is not a partition into equal strips"]
    kept = retained_by(masks, blocks)
    reported = [mask_of(s) for s in res["retained"]["sets"]]
    if sorted(reported) != sorted(kept):
        problems.append("split retained members differ from the recount")
    size = res["retainedSize"]
    if size != len(kept):
        problems.append(f"retainedSize {size}, recount {len(kept)}")
    bound = split_bound(n, m, len(masks))
    num, den = res["bound"]
    if num * bound.denominator != den * bound.numerator:
        problems.append(f"split bound {num}/{den}, expected {bound}")
    if size * bound.denominator < bound.numerator:
        problems.append(f"retainedSize {size} below the bound {bound}")
    if exhaustive and size != exhaustive_max:
        problems.append(f"exhaustive retainedSize {size}, "
                        f"maximum {exhaustive_max}")
    if size > exhaustive_max:
        problems.append("retainedSize exceeds the exhaustive maximum")
    return problems


def transversal_closed_form(n: int, m: int, size: int, j: int) -> Fraction:
    d = n // m
    tuples = 1
    for i in range(j):
        tuples *= comb(n - d * i, d)
    return Fraction(d ** j * comb(n - d * j, m - j) * size * tuples,
                    comb(n, m))


def check_transversal(masks, n: int, m: int, j: int, code: int,
                      report: dict) -> list[str]:
    if code != 0:
        return [f"transversal-check exit {code}"]
    res = report["results"]
    expected = transversal_closed_form(n, m, len(masks), j)
    problems = []
    if res["equal"] is not True:
        problems.append("transversal-check reports unequal counts")
    if res["brute"] != expected:
        problems.append(f"transversal brute {res['brute']}, closed form "
                        f"{expected}")
    num, den = res["formula"]
    if num * expected.denominator != den * expected.numerator:
        problems.append("transversal formula differs from the closed form")
    return problems


def check_generated(obj: dict, n: int, m: int, size: int) -> list[str]:
    """gen-random --json: ``size`` distinct m-sets on n labels."""
    if obj.get("n") != n or obj.get("m") != m:
        return [f"generated family header {obj.get('n')}/{obj.get('m')}"]
    sets = obj.get("sets", [])
    problems = _sets_problems(sets, n, "generated family")
    if len(sets) != size:
        problems.append(f"generated {len(sets)} sets, expected {size}")
    if any(len(s) != m for s in sets):
        problems.append("generated set of the wrong size")
    return problems


def check_process_r(masks, n: int, code: int, report: dict) -> list[str]:
    """process-r: familyHat inside the input, parts disjoint and covering
    familyHat, restriction counts recomputed, every audit line ok."""
    if code != 0:
        return [f"process-r exit {code}"]
    res = report["results"]
    members = set(masks)
    hat_sets = res["familyHat"]["sets"]
    problems = _sets_problems(hat_sets, n, "familyHat")
    hat = [mask_of(s) for s in hat_sets]
    if not all(u in members for u in hat):
        problems.append("familyHat member outside the input family")
    audit = res["audit"]
    parts = audit["parts"]
    if sum(p["sizeT"] for p in parts) != len(hat):
        problems.append("engine parts overlap or miss familyHat members")
    per_base: dict[int, int] = {}
    for part in parts:
        c = mask_of(part["C"])
        restriction = sum(1 for u in masks if u & c == c)
        if part["restriction"] != restriction:
            problems.append(f"part restriction {part['restriction']}, "
                            f"recount {restriction}")
        if sum(1 for u in hat if u & c == c) < part["sizeT"]:
            problems.append("part larger than familyHat members on its base")
        per_base[c] = per_base.get(c, 0) + part["sizeT"]
    for line in audit["consistency"]:
        c = mask_of(line["C"])
        restriction = sum(1 for u in masks if u & c == c)
        if (line["ok"] is not True or line["restriction"] != restriction
                or line["sum_parts"] != per_base.get(c)
                or line["sum_parts"] > restriction):
            problems.append(f"consistency line for {line['C']} is wrong")
    if set(per_base) != {mask_of(line["C"]) for line in audit["consistency"]}:
        problems.append("consistency lines do not cover the part bases")
    if audit["all_sandwich_ok"] is not True:
        problems.append("audit sandwich failed")
    if any(len(s) != res["rHat"] for s in res["basesHat"]["sets"]):
        problems.append("terminal base of the wrong rank")
    if not res["steps"] or res["steps"][-1]["rOut"] != res["rHat"]:
        problems.append("last engine step does not end at rHat")
    return problems
