"""Property tests: each fast path against its brute reference.

The shadow references use only SetFamily.shadow, SetFamily.restrict,
SetFamily.shadow_contains, the p_sets oracle and the unpruned sunflower
oracle, none of which goes through the member-column kernel; the
reference subset map is checked against them, the kernel's shadow
membership against the map, the size-grouped restriction counts of the
spreadness checks against the map's bucket sizes, and the size-grouped
trace counts on a subsplit against every carried subset counted one by
one.  The
pair-link sunflower search is also pinned to find_sunflower_backtrack,
the per-core bucket backtracking it replaced: same certificate (core,
and petals in order) or the same None.  The split references use only
enumerate_splits, SetFamily.on_subsplit and a per-tuple
member scan, none of which goes through the incidence kernel of the
split searches; the kernel itself is checked block by block against the
member scan it replaced, and enumerate_splits against the enumerator it
replaced, which pins the order the exhaustive tie-break depends on.
The engine's per-component drain, and every engine call of the driver
rank by rank, are checked against the restart scan that decides every
pair again after each extraction, over every candidate base, with a
fresh violator search per removal, and which decides size floors with
the float comparisons of the oracles; the engine's cleaning is checked
against that violator search alone, and the violator search, which
walks those counts from the largest size down, against the violator's
definition level by level;
the engine's integer floor table is checked against those comparisons
too, and the family constructor's canonical order against sorted label
lists.  The label-ordered greedy of the gamma extraction is checked
against the scan over the sorted family it replaced, and the spreadness
check against the brute scan on the members given in shuffled orders.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from random import Random
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from sunflower import basesets as bs
from sunflower import gamma, sunflowers
from sunflower.errors import (BudgetExceededError, ContractViolationError,
                              TrialsExhaustedError)
from sunflower.extremal import build_extremal
from sunflower.families import (SetFamily, Split, Universe, _canonical_key,
                                _in_shadow, _kept_columns, _subset_counts,
                                family_from_json_obj, family_from_text,
                                labels_mask, mask_labels)
from sunflower.gamma import (GammaReport, _carried_counts, _spread_holds,
                             check_gamma, check_gamma_on_subsplit, exact_base)
from sunflower.harness import generate_random_family
from sunflower.rng import CounterRng
from sunflower.splits import (_Incidence, count_splits, enumerate_splits,
                              find_good_split, retention_bound,
                              transversal_count_brute, transversal_formula)
from sunflower.sunflowers import (extract_disjoint_via_gamma,
                                  find_sunflower_exact, verify_certificate)

from oracles import (brute_max_ratio, carried_counts_reference,
                     clean_to_spread, degree_bound_decides,
                     disjoint_greedy_reference, enumerate_splits_reference,
                     extractions_by_rescan, full_rank_pass_by_grouping,
                     family_from_json_obj_reference,
                     family_from_text_reference, find_sunflower_backtrack,
                     max_degree, max_violator_masks, meet_once,
                     meets_eps_floor, meets_threshold, p_sets, subset_map,
                     sunflower_free_check_oracle)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def families(draw, n=None, min_size=0, split=None):
    """Random families on n <= 8 labels with members of at most 3 labels;
    with ``split``, members lie on it (at most one label per strip)."""
    if n is None:
        n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 3))
    pool = [x for x in range(1 << n) if x.bit_count() <= m]
    if split is not None:
        pool = [x for x in pool if split.full_subsplit().carries_mask(x)]
    masks = draw(st.sets(st.sampled_from(pool), min_size=min_size,
                         max_size=min(12, len(pool))))
    return SetFamily(Universe(n), masks, m=m)


@st.composite
def bases(draw):
    q = draw(st.integers(1, 5))
    return Fraction(draw(st.integers(q + 1, 4 * q + 3)), q)


@st.composite
def subsplit_cases(draw):
    """A family, a range family and a subsplit of a random split.  The
    family lies on the split half the time, and the range family is the
    family itself half the time, as in the extraction engine."""
    strips = draw(st.integers(1, 3))
    d = draw(st.integers(1, 8 // strips))
    n = strips * d
    perm = draw(st.permutations(range(n)))
    split = Split.of(n, [sorted(perm[i * d:(i + 1) * d])
                         for i in range(strips)])
    indices = sorted(draw(st.sets(st.integers(0, strips - 1), min_size=1)))
    on_split = split if draw(st.booleans()) else None
    family = draw(families(n=n, min_size=1, split=on_split))
    over = family if draw(st.booleans()) else draw(families(n=n))
    return family, split.subsplit(indices), over


def report_tuple(report):
    return report.holds, report.witness, report.ratio


@st.composite
def label_lists(draw):
    """(n, distinct label lists) on n <= 8 labels: mixed sizes, the empty
    set, and proper prefixes of members such as {0} next to {0,1}."""
    n = draw(st.integers(1, 8))
    sets = draw(st.sets(st.frozensets(st.integers(0, n - 1)), max_size=12))
    prefixes = {frozenset(sorted(s)[:j]) for s in sets for j in range(len(s))}
    if prefixes:
        sets |= draw(st.sets(st.sampled_from(sorted(prefixes, key=sorted))))
    return n, draw(st.permutations([sorted(s) for s in sets]))


@SETTINGS
@given(label_lists(), st.data())
def test_family_constructor_is_canonical(case, data):
    n, lists = case
    family = SetFamily.of(n, lists)
    shuffled = data.draw(st.permutations([labels_mask(s) for s in lists]))
    again = SetFamily(Universe(n), shuffled)
    # length, equality and hashing need no order: neither family sorts
    assert again == family and hash(again) == hash(family)
    assert len(again) == len(lists)
    assert family._masks is None and again._masks is None
    masks = family.masks()
    assert [tuple(s) for s in sorted(lists)] == \
        [tuple(x for x in range(n) if u >> x & 1) for u in masks]
    assert [s.bits for s in family] == list(masks)
    assert again.masks() == masks and hash(again) == hash(family)
    assert again.to_text() == family.to_text()
    assert again.to_json_obj() == family.to_json_obj()
    if masks:
        twice = data.draw(st.sampled_from(masks))
        with pytest.raises(ValueError, match="duplicate member"):
            SetFamily(Universe(n), shuffled + [twice])
    for bad in (data.draw(st.integers(max_value=-1)),
                data.draw(st.integers(min_value=1 << n))):
        with pytest.raises(ValueError, match="outside universe width"):
            SetFamily(Universe(n), shuffled + [bad])


@SETTINGS
@given(label_lists())
def test_canonical_key_orders_like_label_tuples(case):
    _, lists = case
    masks = [labels_mask(s) for s in lists]
    assert sorted(masks, key=_canonical_key) == sorted(masks, key=mask_labels)
    for a, b in combinations(masks, 2):
        assert (_canonical_key(a) < _canonical_key(b)) == \
            (mask_labels(a) < mask_labels(b))


@st.composite
def family_rows(draw):
    """(n, m, rows): a family as rows of labels, each row in any order and
    with labels possibly repeated, the rows in any order."""
    n, lists = draw(label_lists())
    m = max(map(len, lists), default=0) + draw(st.integers(0, 2))
    rows = []
    for labels in lists:
        row = labels + draw(st.lists(st.sampled_from(labels), max_size=2)
                            if labels else st.just([]))
        rows.append(draw(st.permutations(row)))
    return n, m, rows


@st.composite
def family_text(draw, n, m, rows, header=None):
    """The text format of ``rows`` with blank lines, comment lines and
    trailing comments, tab separators, '-' for the empty set, labels
    written as '07' or '+3', and LF or CRLF line endings.  A string in a
    row is written as it is, and so is ``header`` when given."""
    def note():
        return draw(st.sampled_from(["", "", " # note", "\t#x 1 2"]))

    def token(x):
        if isinstance(x, str) or x < 0:
            return str(x)
        return draw(st.sampled_from([str(x), str(x), f"0{x}", f"+{x}"]))

    lines = [draw(st.sampled_from(["", "# comment", "  "]))
             for _ in range(draw(st.integers(0, 2)))]
    lines.append(header or f"universe {n} maxcard {m}" + note())
    for row in rows:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "#", " \t"])))
        sep = draw(st.sampled_from([" ", "\t", "  "]))
        body = sep.join(token(x) for x in row) if row else "-"
        lines.append(body + note())
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


def family_json(n, m, rows):
    return {"n": n, "m": m, "sets": [list(r) for r in rows]}


def raised(parse, source):
    """The class of the exception ``parse(source)`` raises, or None."""
    try:
        parse(source)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)
    return None


@SETTINGS
@given(family_rows(), st.data())
def test_parsers_match_reference_parsers(case, data):
    n, m, rows = case
    text = data.draw(family_text(n, m, rows))
    want = family_from_text_reference(text)
    got = family_from_text(text)
    assert got == want and got.masks() == want.masks()
    obj = family_json(n, m, rows)
    assert family_from_json_obj(obj).masks() == want.masks()
    assert family_from_json_obj(obj) == family_from_json_obj_reference(obj)


@SETTINGS
@given(family_rows().flatmap(lambda case: family_text(*case)))
@example("universe 4 maxcard 2\n0 1\n2 3\n")
@example("universe 4 maxcard 2 # header\n0 1 # 2\n2 #\n")
@example("universe 4 maxcard 2\n-\n0 1\n")
@example("universe 4 maxcard 2\n1 1\n0 1\n")
def test_text_parser_matches_reference_without_comments(text):
    # the parser splits rows without cutting comments when the text has
    # no '#', so each text is also read with every comment cut
    cut = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    for source in (text, cut):
        want = family_from_text_reference(source)
        got = family_from_text(source)
        assert got == want and got.masks() == want.masks()


# One defect each; the JSON form exists for the integer ones.
MALFORMED = ("negative label", "label >= n", "non-integer token",
             "bad header", "duplicate member")


@st.composite
def malformed_family(draw):
    """(kind, text, JSON object or None) of a family with one defect."""
    kind = draw(st.sampled_from(MALFORMED))
    n, m, rows = draw(family_rows())
    at = draw(st.integers(0, len(rows)))
    header = None
    if kind == "negative label":
        rows.insert(at, [0, draw(st.integers(-3, -1))])
    elif kind == "label >= n":
        rows.insert(at, [draw(st.integers(n, n + 3))])
    elif kind == "non-integer token":
        rows.insert(at, [0, draw(st.sampled_from(["x", "1.5", "0x1", "-"]))])
    elif kind == "bad header":
        header = draw(st.sampled_from([
            f"universe {n}", f"universe {n} max {m}", f"universe x maxcard {m}",
            f"universe 0 maxcard {m}", f"universe {n} maxcard -1", "0 1"]))
    else:
        rows.append([])
        rows.insert(at, rows[draw(st.integers(0, len(rows) - 1))][::-1])
    text = draw(family_text(n, m, rows, header))
    obj = family_json(n, m, rows) if kind in (
        "negative label", "label >= n", "duplicate member") else None
    return kind, text, obj


@SETTINGS
@given(malformed_family())
# '-' stands for the empty set only alone on its row
@example(("non-integer token", "universe 4 maxcard 2\n0 1\n- 1\n", None))
def test_parsers_reject_like_reference_parsers(case):
    kind, text, obj = case
    want = raised(family_from_text_reference, text)
    assert want is not None, kind
    assert raised(family_from_text, text) is want
    if obj is not None:
        want = raised(family_from_json_obj_reference, obj)
        assert want is not None, kind
        assert raised(family_from_json_obj, obj) is want


@SETTINGS
@given(families())
def test_subset_buckets_matches_restrictions(family):
    masks = family.masks()
    want = {s.bits: [u for u in masks if u & s.bits == s.bits]
            for s in family.shadow()}
    assert subset_map(masks) == want


@st.composite
def mixed_masks(draw):
    """Distinct masks on n <= 10 labels of mixed sizes, at most 4 labels
    each, with the empty mask half the time and, on n >= 8 labels, one
    member of 8 or more labels half the time; in any order."""
    n = draw(st.integers(1, 10))
    masks = draw(st.sets(st.sets(st.integers(0, n - 1), max_size=4)
                         .map(labels_mask), max_size=12))
    if draw(st.booleans()):
        masks.add(0)
    if n >= 8 and draw(st.booleans()):
        masks.add(labels_mask(draw(st.sets(st.integers(0, n - 1),
                                           min_size=8))))
    return draw(st.permutations(sorted(masks)))


@SETTINGS
@given(mixed_masks())
@example([])
@example([0])
@example([0b1, 0b110, 0b11111111])
def test_in_shadow_matches_the_subset_map(masks):
    # the membership kernel ANDs the family's kept label columns: it
    # answers every query, inside the members' union and one label past
    # it, as the reference map does, the empty family and the empty mask
    # included, and builds the columns once
    family = SetFamily(Universe(10), masks)
    shadow = subset_map(masks)
    top = max(masks, default=0).bit_length() + 1
    for s in range(1 << top):
        assert _in_shadow(family, s) == (s in shadow)
    assert _kept_columns(family) is family._cols


@SETTINGS
@given(mixed_masks())
@example([0, 0b1, 0b110, 0b1011, 0b11111111])
# several members of the largest size, left uncounted, beside smaller
# ones and the empty member
@example([0b1110, 0, 0b1, 0b10110, 0b111000, 0b11, 0b1101])
@example([0])
def test_subset_counts_match_bucket_sizes(masks):
    # sizes below the largest member size T are counted, one map per
    # size 1, .., T - 1, as the buckets give them; a T-set's bucket holds
    # exactly one member, which is why size T needs no map
    counts = _subset_counts(masks)
    top = max(map(int.bit_count, masks), default=0)
    assert sorted(counts) == list(range(1, top))
    for size, by_mask in counts.items():
        assert by_mask and all(s.bit_count() == size for s in by_mask)
    buckets = subset_map(masks)
    assert {s: c for by_mask in counts.values() for s, c in by_mask.items()} \
        == {s: len(bucket) for s, bucket in buckets.items()
            if 0 < s.bit_count() < top}
    assert all(buckets[u] == [u] for u in masks if u.bit_count() == top)
    need = sum(1 << u.bit_count() for u in masks)
    assert _subset_counts(masks, budget=need) == counts
    if need:
        with pytest.raises(BudgetExceededError) as info:
            _subset_counts(masks, budget=need - 1)
        assert (info.value.needed, info.value.budget) == (need, need - 1)


@SETTINGS
@given(families(min_size=1), bases())
# a tie across sizes at the max: the pair {0,1} (count 1) and the
# singleton {1} (count 2 = 1 * b) both reach 2, and {0,1} comes first
@example(SetFamily.of(3, [[0, 1], [1, 2]]), Fraction(2))
# the same tie where the smaller size wins: {0} (count 2) and the members
# {0,1}, {0,2} all reach 2, and {0} comes first
@example(SetFamily.of(3, [[0, 1], [0, 2]]), Fraction(2))
# {0} lies in all three members: witness {0}, ratio 3 * 2 / 3 = 2
@example(SetFamily.of(4, [[0, 1], [0, 2], [0, 3]]), Fraction(2))
def test_check_gamma_matches_brute_scan(family, b):
    candidates = [s for s in family.shadow() if s.bits]
    assert report_tuple(check_gamma(family, b)) == brute_max_ratio(
        family, candidates, b)


@SETTINGS
@given(families(min_size=1), bases())
@example(SetFamily.of(4, [[0, 1], [0, 2], [0, 3]]), Fraction(2))
def test_check_gamma_reads_kept_columns_as_a_fresh_count(family, b):
    # check_gamma counts afresh whether or not the family keeps the
    # member columns of its shadow queries: both give the brute verdict,
    # witness and ratio, over the budget both raise with the same need
    # and budget, and the check builds no columns
    want = brute_max_ratio(family, [s for s in family.shadow() if s.bits], b)
    fresh = SetFamily(family.universe, family.masks(), m=family.m)
    kept = SetFamily(family.universe, family.masks(), m=family.m)
    _kept_columns(kept)
    need = sum(1 << u.bit_count() for u in family.masks())
    for fam in (fresh, kept):
        assert report_tuple(check_gamma(fam, b)) == want
        assert report_tuple(check_gamma(fam, b, budget=need)) == want
        with pytest.raises(BudgetExceededError) as info:
            check_gamma(fam, b, budget=need - 1)
        assert (info.value.needed, info.value.budget) == (need, need - 1)
    assert fresh._cols is None and kept._cols is not None


@SETTINGS
@given(families(min_size=1), bases(), st.data())
def test_check_gamma_ignores_input_order(family, b, data):
    # verdict, witness and ratio do not depend on the order the members
    # are given in, and match the brute scan
    want = brute_max_ratio(family, [s for s in family.shadow() if s.bits], b)
    for _ in range(2):
        shuffled = data.draw(st.permutations(family.masks()))
        fam = SetFamily(family.universe, shuffled, m=family.m)
        assert report_tuple(check_gamma(fam, b)) == want


@SETTINGS
@given(subsplit_cases(), bases())
def test_check_gamma_on_subsplit_matches_brute_scan(case, b):
    family, sub, over = case
    candidates = [s for p in range(1, sub.rank + 1) for s in p_sets(sub, p)
                  if over.shadow_contains(s)]
    assert report_tuple(check_gamma_on_subsplit(family, sub, over, b)) == \
        brute_max_ratio(family, candidates, b)


def brute_max_violator(family, sub, over, b):
    """The maximal-violator definition, level by level from the top: the
    largest sets S on ``sub`` in the shadow of ``over`` with |F[S]| *
    b^|S| >= |F|, the least labels first; None when no nonempty S is."""
    for p in range(sub.rank, 0, -1):
        hits = [s for s in p_sets(sub, p) if over.shadow_contains(s)
                and len(family.restrict(s)) * b ** p >= len(family)]
        if hits:
            return min(hits, key=lambda s: s.labels())
    return None


@SETTINGS
@given(subsplit_cases(), bases())
def test_maximal_violator_matches_brute_search(case, b):
    family, sub, over = case
    want = brute_max_violator(family, sub, over, b)
    assert max_violator_masks(family.masks(), sub, over, b) == \
        (None if want is None else want.bits)


@SETTINGS
@given(subsplit_cases(), bases())
def test_clean_to_spread_matches_fresh_violator_searches(case, b):
    # the engine's cleaning keeps one trace count map and takes each
    # dropped member's traces off it; the oracle searches afresh after
    # every removal
    family, sub, over = case
    b = exact_base(b)
    assert bs._clean_to_spread(list(family.masks()), sub, over,
                               b.numerator, b.denominator) == \
        clean_to_spread(family.masks(), sub, over, b)


@SETTINGS
@given(st.one_of(families(min_size=1),
                 label_lists().filter(lambda case: case[1]).map(
                     lambda case: SetFamily.of(*case))), bases())
# decided: every label in one member, 2 < 4 members
@example(SetFamily.of(4, [[0], [1], [2], [3]]), Fraction(2))
# a tie, b^M = |F|, refutes: a largest member violates
@example(SetFamily.of(4, [[0], [1], [2], [3]]), Fraction(4))
# refuted: {0} lies in all three members, 3 * 2 >= 3
@example(SetFamily.of(4, [[0, 1], [0, 2], [0, 3]]), Fraction(2))
# not decided, and spread: D = 2, b = 3/2 and 2 * b^2 >= 4 > 2 * b,
# b^3 < 4, so the count runs
@example(SetFamily.of(9, [[0, 1, 2], [0, 3, 4], [5, 6, 7], [1, 5, 8]]),
         Fraction(3, 2))
# not decided at the tie D * b^2 = 4 * 9/4 = |F|, and refuted by the
# count: {0, 1} lies in 4 of the 9 members, 4 * b^2 >= 9
@example(SetFamily.of(8, [[0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 1, 5],
                          [2, 3, 6], [4, 5, 7], [2, 6, 7], [3, 4, 6],
                          [2, 5, 7]]), Fraction(3, 2))
# decided with mixed sizes and the empty member: 1 * 3/2 < 4, 9/4 < 4
@example(SetFamily.of(4, [[], [0], [1, 2], [3]]), Fraction(3, 2))
# the empty member alone: no nonempty set, counted and vacuously spread
@example(SetFamily.of(2, [[]]), Fraction(2))
def test_spread_holds_matches_check_gamma(family, b):
    # the engine audit's spreadness verdict is check_gamma's, and the full
    # count runs exactly when the degree bound does not decide
    decides = degree_bound_decides(family, b)
    event(f"degree bound decides: {decides}")
    with mock.patch.object(gamma, "check_gamma", wraps=check_gamma) as full:
        assert _spread_holds(family, b, max_degree(family)) == \
            check_gamma(family, b).holds
    assert full.call_count == (not decides)


@SETTINGS
@given(families(min_size=1), st.floats(1.001, 3.0), st.integers(2, 4))
@example(SetFamily.of(4, [[0, 1], [0, 2], [0, 3]]), 1.001, 2)  # refuted
def test_audit_spread_verdict_matches_check_gamma(family, c, k):
    # an audit of no parts still decides the family's spreadness at its
    # level c^c * k * ln k
    cfg = bs.Constants(0.5, 1.0005, c, k, max(family.m, 1), len(family))
    empty = SetFamily(family.universe, ())
    result = bs.ProcessRResult((), 1, 0, empty, empty, (), ())
    audit = bs.audit_terminal_bases(result, family, cfg)
    level = Fraction(audit["spread_hypothesis_level"])
    event(f"degree bound decides: {degree_bound_decides(family, level)}")
    assert audit["spread_hypothesis_holds"] == check_gamma(family, level).holds


def budget_outcome(count):
    """``count()``, or the (needed, budget) of the BudgetExceededError it
    raises."""
    try:
        return count()
    except BudgetExceededError as exc:
        return exc.needed, exc.budget


HALVES8 = Split.of(8, [range(4), range(4, 8)])


@SETTINGS
@given(subsplit_cases(), st.integers(1, 64))
# len(masks) * 2**|union| = 2 << 8 is over 8, the exact sum 2 + 2 is not
@example((SetFamily.of(8, [[0], [4]]), HALVES8.subsplit([0, 1]),
          SetFamily.of(8, [])), 8)
# the exact sum 4 + 4 is over 7, and at 8 it is not
@example((SetFamily.of(8, [[0, 4], [1, 5]]), HALVES8.subsplit([0, 1]),
          SetFamily.of(8, [])), 7)
@example((SetFamily.of(8, [[0, 4], [1, 5]]), HALVES8.subsplit([0, 1]),
          SetFamily.of(8, [])), 8)
def test_carried_counts_budget_matches_exact_sum(case, budget):
    # the count map by size raises with the exact sum(2**|trace|) when
    # that is over the budget, and counts otherwise
    family, sub, _ = case
    masks = family.masks()
    with mock.patch.object(gamma, "DEFAULT_SHADOW_BUDGET", budget):
        got = budget_outcome(lambda: _carried_counts(masks, sub))
    assert got == budget_outcome(
        lambda: carried_counts_reference(masks, sub, budget))


@SETTINGS
@given(families(), st.integers(2, 4))
def test_find_sunflower_exact_agrees_with_oracle(family, k):
    cert = find_sunflower_exact(family, k)
    assert (cert is None) == sunflower_free_check_oracle(family, k)
    if cert is not None:
        assert cert.k == k
        assert verify_certificate(cert)
        assert all(petal.bits in family.masks() for petal in cert.petals)


@st.composite
def cored_families(draw):
    """Families on n <= 10 labels around a drawn core: members adding at
    most one (or at most two) labels to the core, random members, and,
    each by a draw, the core itself as a member and the empty set."""
    n = draw(st.integers(1, 10))
    full = (1 << n) - 1
    core = draw(st.sampled_from([c for c in range(full + 1)
                                 if c.bit_count() <= 2]))
    width = draw(st.integers(1, 2))
    petals = draw(st.sets(st.sampled_from([p for p in range(full + 1)
                                           if not p & core
                                           and p.bit_count() <= width]),
                          max_size=10))
    others = draw(st.sets(st.integers(0, full), max_size=6))
    masks = {core | p for p in petals} | others
    if draw(st.booleans()):
        masks.add(core)
    if draw(st.booleans()):
        masks.add(0)
    m = max((u.bit_count() for u in masks), default=0)
    return SetFamily(Universe(n), masks, m=m)


PRODUCT_3_6 = build_extremal(3, 6).masks()
# the (3,3) product on labels 0-5 plus {2, 3, 4}: each row that repeats a
# trace drops fewer than half of its links
PRODUCT_3_3_PLUS = SetFamily(
    Universe(6),
    build_extremal(3, 3).masks() + (labels_mask([2, 3, 4]),), m=3)


@SETTINGS
@given(st.one_of(families(), cored_families()), st.integers(2, 5))
@example(SetFamily(Universe(18), PRODUCT_3_6, m=6), 3)
@example(SetFamily(Universe(18),
                   PRODUCT_3_6 + (labels_mask([0, 1, 2, 3, 12, 13]),),
                   m=6), 3)
# the added member sorts last, so 32 rows repeat a trace (above, first: 1)
@example(SetFamily(Universe(18),
                   PRODUCT_3_6 + (labels_mask([2, 4, 6, 8, 10, 12]),),
                   m=6), 3)
# one trace repeated three times; past four petals a row outgrows the
# four submasks of its member and must repeat a trace
@example(SetFamily.of(5, [[0, 1], [0, 2], [0, 3], [0, 4]]), 4)
@example(SetFamily.of(7, [[0, x] for x in range(1, 7)]), 4)
# k = 2 with no repeated trace
@example(SetFamily.of(3, [[0, 1], [0, 2], [1, 2]]), 2)
# one example per row path: fewer than half the links dropped; two stars
# on cores sharing labels 2 and 3, whose rows drop most links or keep one
# trace; a star, one trace; rows longer than 2**|u|; and k = 2
@example(PRODUCT_3_3_PLUS, 3)
@example(SetFamily.of(14, [[0, 1, 2, 3, x] for x in range(6, 10)]
                      + [[2, 3, 4, 5, x] for x in range(10, 14)]), 3)
@example(SetFamily.of(6, [[0, x] for x in range(1, 6)]), 3)
@example(SetFamily.of(6, combinations(range(6), 3)), 3)
@example(PRODUCT_3_3_PLUS, 2)
def test_find_sunflower_exact_matches_backtracking(family, k):
    assert find_sunflower_exact(family, k) == find_sunflower_backtrack(family, k)


def greedy_outcome(extract, family, k, b):
    """The petals' masks, None, or the exception type raised."""
    try:
        got = extract(family, k, b)
    except (ValueError, ContractViolationError) as exc:
        return type(exc)
    if got is None or isinstance(got, list):
        return got
    return [p.bits for p in got.petals]


@SETTINGS
@given(st.one_of(label_lists().map(lambda case: SetFamily.of(*case)),
                 cored_families()),
       st.integers(1, 5), st.one_of(st.none(), bases()))
# b = k * m promises two petals, but both members hold label 0
@example(SetFamily.of(3, [[0, 1], [0, 2]]), 2, None)
@example(SetFamily.of(3, [[0, 1], [0, 2]]), 2, Fraction(3, 2))
@example(SetFamily.of(4, [[], [0], [0, 1], [1, 2], [3]]), 3, None)
def test_gamma_greedy_matches_the_sorted_scan(family, k, b):
    # with the spreadness check taken as passed, the label-ordered greedy
    # gives the sorted scan's petals, stall (None) or contract violation
    # on any family; b None stands for k * m, the guaranteed regime
    if b is None:
        b = Fraction(k * max(family.m, 1))
    want = greedy_outcome(disjoint_greedy_reference, family, k, b)
    holds = GammaReport(True, None, Fraction(0))
    with mock.patch.object(sunflowers, "check_gamma",
                           lambda *args, **kwargs: holds):
        assert greedy_outcome(extract_disjoint_via_gamma, family, k,
                              b) == want
    if k > 1 and len(family) and check_gamma(family, b).holds:
        assert greedy_outcome(extract_disjoint_via_gamma, family, k,
                              b) == want


# -- splits ------------------------------------------------------------------

SPLIT_SHAPES = [(4, 2), (6, 2), (6, 3), (8, 2), (9, 3)]


@st.composite
def uniform_families(draw, min_size=0, shapes=SPLIT_SHAPES):
    """Random m-uniform families (declared m) for (n, m) in ``shapes``."""
    n, m = draw(st.sampled_from(shapes))
    pool = [labels_mask(c) for c in combinations(range(n), m)]
    masks = draw(st.sets(st.sampled_from(pool), min_size=min_size,
                         max_size=min(12, len(pool))))
    return SetFamily(Universe(n), masks, m=m)


def reference_exhaustive(family):
    """The first split in enumeration order retaining the most members."""
    best = None
    for split in enumerate_splits(family.universe, family.m):
        kept = family.on_subsplit(split.full_subsplit(), split.m)
        if best is None or len(kept) > len(best[1]):
            best = (split, kept)
    return best


def reference_random(family, trials, seed):
    """Replays the sampler's draws: ("met", split, kept) for the first
    sample meeting the floor, else ("exhausted", best sample)."""
    n, m = family.universe.n, family.m
    d = n // m
    bound = retention_bound(family, m)
    rng = CounterRng(seed)
    best = None
    for _ in range(trials):
        perm = list(range(n))
        rng.shuffle(perm)
        split = Split.of(n, sorted(sorted(perm[i * d:(i + 1) * d])
                                   for i in range(m)))
        kept = family.on_subsplit(split.full_subsplit(), split.m)
        if len(kept) >= bound:
            return ("met", split, kept)
        if best is None or len(kept) > len(best[1]):
            best = (split, kept)
    return ("exhausted", best)


def scan_transversal_count(family, j):
    """Per-tuple member scan over every ordered tuple of j disjoint
    d-sets."""
    n, m = family.universe.n, family.m
    d = n // m
    masks = family.masks()
    total = 0

    def rec(depth, used, picked):
        nonlocal total
        if depth == j:
            total += sum(1 for u in masks
                         if all((u & b).bit_count() == 1 for b in picked))
            return
        for c in combinations([x for x in range(n) if not used >> x & 1], d):
            b = labels_mask(c)
            rec(depth + 1, used | b, picked + [b])

    rec(0, 0, [])
    return total


@SETTINGS
@given(uniform_families(), st.data())
def test_incidence_matches_member_scan(family, data):
    masks = family.masks()
    n = family.universe.n
    used = 0
    for u in masks:
        used |= u
    drawn = data.draw(st.integers(0, (1 << n) - 1), label="block")
    # the empty block, a drawn one, the labels no member uses, and a block
    # reaching past the universe
    blocks = [0, drawn, family.universe.full_mask & ~used,
              drawn | 1 << (n + 1)]
    meet = _Incidence(masks)
    for block in blocks:
        assert meet[block] == meet_once(masks, block), block
    assert meet.everyone.bit_count() == len(family)


@pytest.mark.parametrize(
    "n, m", SPLIT_SHAPES + [(3, 3), (4, 1), (5, 5), (6, 6), (12, 4)])
def test_enumerate_splits_keeps_the_reference_order(n, m):
    uni = Universe(n)
    splits = list(enumerate_splits(uni, m))
    assert splits == list(enumerate_splits_reference(uni, m))
    assert len(splits) == count_splits(n, m)
    # the enumerator skips validation; the checking constructor accepts
    # every split it builds
    for sp in splits:
        assert Split(sp.universe, sp.strips) == sp


def test_enumerate_splits_keeps_one_stack_per_call():
    uni = Universe(9)
    reference = list(enumerate_splits_reference(uni, 3))
    ahead = enumerate_splits(uni, 3)
    got_ahead = [next(ahead) for _ in range(7)]
    behind = enumerate_splits(uni, 3)
    got_behind = []
    for x, y in zip(ahead, behind):
        got_ahead.append(x)
        got_behind.append(y)
    got_behind.extend(behind)
    assert got_ahead == reference
    assert got_behind == reference


@SETTINGS
@given(uniform_families(min_size=1))
def test_exhaustive_split_matches_reference(family):
    result = find_good_split(family)
    split, kept = reference_exhaustive(family)
    assert result.split == split
    assert result.retained == kept
    assert result.bound == retention_bound(family, family.m)


@SETTINGS
@given(uniform_families(min_size=1), st.integers(0, 5),
       st.integers(0, 1 << 16))
def test_random_split_replays_reference(family, trials, seed):
    if trials == 0:
        with pytest.raises(ValueError, match="trials must be at least 1"):
            find_good_split(family, mode="random", trials=0, seed=seed)
        return
    want = reference_random(family, trials, seed)
    if want[0] == "met":
        result = find_good_split(family, mode="random", trials=trials,
                                 seed=seed)
        assert (result.split, result.retained) == want[1:]
        return
    with pytest.raises(TrialsExhaustedError) as info:
        find_good_split(family, mode="random", trials=trials, seed=seed)
    best = info.value.best
    assert (best.split, best.retained) == want[1]


@SETTINGS
@given(uniform_families(), st.data())
def test_transversal_count_matches_scan_and_formula(family, data):
    j = data.draw(st.integers(0, family.m))
    count = transversal_count_brute(family, j)
    assert count == scan_transversal_count(family, j)
    if len(family):
        assert count == transversal_formula(family, j)


@pytest.mark.parametrize("n, m, size, seed, scan",
                         [(9, 3, 30, 7, True), (9, 3, 84, 0, True),
                          (12, 3, 12, 5, True), (12, 3, 60, 1, False)])
def test_transversal_count_at_j_equal_m_matches_scan_and_formula(
        n, m, size, seed, scan):
    # at j = m the blocks cover every label; at (12, 3) the scan walks
    # 34,650 ordered tuples per member, so the 60-member family is checked
    # against the closed form alone
    family = generate_random_family(n, m, size, seed)
    count = transversal_count_brute(family, m)
    assert count == transversal_formula(family, m)
    if scan:
        assert count == scan_transversal_count(family, m)


@SETTINGS
@given(uniform_families(shapes=[(3, 3)]), st.data())
def test_transversal_count_matches_scan_at_strip_size_one(family, data):
    j = data.draw(st.integers(0, family.m))
    assert transversal_count_brute(family, j) == scan_transversal_count(
        family, j)


@SETTINGS
@given(uniform_families(shapes=SPLIT_SHAPES + [(3, 3)]))
def test_transversal_count_at_j_zero_matches_scan(family):
    assert transversal_count_brute(family, 0) == scan_transversal_count(
        family, 0) == len(family)


@st.composite
def threshold_constants(draw):
    """Engine constants in one of three regimes: floors under 1e-300 (a
    tiny epsilon), c ** h overflowing a float, and famSize = 10**400."""
    regime = draw(st.sampled_from(["tiny", "overflow", "huge"]))
    k, m = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    epsilon = draw(st.floats(1e-300, 1e-60) if regime == "tiny"
                   else st.floats(1e-100, 0.999))
    h, c = ((draw(st.floats(40.0, 400.0)), draw(st.floats(1e10, 1e100)))
            if regime == "overflow"
            else (draw(st.floats(1.0001, 3.0)), draw(st.floats(1.001, 4.0))))
    fam_size = 10 ** 400 if regime == "huge" else draw(st.integers(1, 10 ** 6))
    return bs.Constants(epsilon, h, c, k, m, fam_size)


def assert_least_accepted(need, meets):
    """``need`` is the least count ``meets`` accepts, or inf when it
    accepts none: every finite float floor is below 2**1024."""
    if need == math.inf:
        assert not meets(2 ** 1024)
    else:
        assert need >= 1 and meets(need) and not meets(need - 1)


@SETTINGS
@given(threshold_constants())
def test_threshold_table_is_least_float_accepted_count(cfg):
    thr = bs.Threshold(cfg)
    assert len(thr.need) == cfg.m + 1
    for x, need in enumerate(thr.need):
        assert_least_accepted(need, lambda n: meets_threshold(cfg, n, x))
    assert_least_accepted(thr.eps_need, lambda n: meets_eps_floor(cfg, n))


@st.composite
def engine_cases(draw):
    """A nonempty family on the contiguous m-split of n labels, engine
    constants (the corpus' surrogate regime or a coarser one, famSize up
    to 64x the family size: an inflated famSize raises every threshold, so
    buckets get skipped), the top ranks of the two hand-driven loops and
    the anchor seed of the second one."""
    n, m = draw(st.sampled_from([(6, 2), (6, 3), (9, 3), (12, 2), (12, 3)]))
    split = Split.contiguous(n, m)
    size = draw(st.integers(1, (n // m) ** m))
    family = generate_random_family(n, m, size, draw(st.integers(0, 1 << 16)),
                                    on_split=split)
    epsilon, h, c = draw(st.sampled_from([(0.995, 1.0005, 1.001),
                                          (0.9, 1.2, 1.5), (0.5, 1.1, 1.2)]))
    k = draw(st.integers(2, 3))
    fam_size = len(family) * draw(st.sampled_from([1, 4, 16, 64]))
    return (family, split, bs.Constants(epsilon, h, c, k, m, fam_size),
            draw(st.integers(0, m)), draw(st.integers(0, m - 1)),
            draw(st.integers(0, 1 << 16)))


def pinned_case(n, m, masks, fam_size, top, anchored_top, anchor_seed,
                c=1.001):
    split = Split.contiguous(n, m)
    return (SetFamily(split.universe, masks, m=m), split,
            bs.Constants(0.995, 1.0005, c, 2, m, fam_size), top,
            anchored_top, anchor_seed)


# at rank 1 the bucket of {6} cleans to empty with 6 live members, then
# the extraction at {9} takes (3, 6, 9) and the 5 left are spread
SHRUNK_BUCKET_SPREADS = pinned_case(
    12, 3, [273, 529, 1089, 546, 322, 2178, 1092, 644, 552, 328, 584, 2120,
            2184], 52, 1, 0, 0)
# as above, with {0, 5, 11} and {2, 5, 11} added: after the extraction at
# {9} the bucket of {11} is spread too, and {6}, queued again, comes first
REQUEUED_BASE_COMES_FIRST = pinned_case(
    12, 3, [273, 529, 1089, 546, 322, 2178, 1092, 644, 552, 328, 584, 2120,
            2184, 2081, 2084], 60, 1, 0, 0)
# in the anchored collection a base passed over in one component has a
# live bucket of the same size in another, which must still be decided
COMPONENTS_SHARE_A_BASE = pinned_case(
    9, 3, [73, 137, 265, 81, 145, 273, 97, 138, 146, 98, 162, 290, 76, 140,
           276, 100, 164, 292], 72, 3, 1, 58768)
# in the anchored collection, keyed (0, 1) and (0, 2), label 5 lies in 3
# members and label 6 in 4, but each in only one member of the component
# it is a base of: over every member its bucket reaches the drain's
# floor of 3 > b = 2.002, over the component it does not, so the drain
# never decides it
FAMILY_BUCKET_ONLY = pinned_case(
    9, 3, [73, 145, 289, 274, 98, 84, 100], 7, 1, 1, 13365)
# the drain's exact rules, at b = 2.002 unless stated.  At rank 1 label 0
# takes its 5 members whole, as their traces on strips 1 and 2 are
# disjoint; then labels 6, 7 and 13 keep 2 live members each, whose
# traces meet, and are emptied by size
SMALL_BUCKETS_OVERLAP = pinned_case(18, 3, [labels_mask(s) for s in [
    *([0, 6 + i, 12 + i] for i in range(5)), [1, 6, 13], [2, 6, 13],
    [3, 7, 14], [3, 7, 15]]], 100, 1, 0, 0)
# disjoint traces on f = 2 strips: label 0's 5 > b^2 members are taken
# whole and label 1's 4 = floor(b^2) are emptied
DISJOINT_AT_B_SQUARED = pinned_case(18, 3, [labels_mask(s) for s in [
    *([0, 6 + i, 12 + i] for i in range(5)),
    *([1, 6 + i, 12 + (i + 1) % 5] for i in range(4))]], 100, 1, 0, 0)
# as above at b = 3, where label 1's 9 = b^2 members tie and are emptied
DISJOINT_TIE_AT_B_SQUARED = pinned_case(30, 3, [labels_mask(s) for s in [
    *([0, 10 + i, 20 + i] for i in range(10)),
    *([1, 10 + i, 20 + (i + 1) % 10] for i in range(9))]], 300, 1, 0, 0,
    c=1.5)
# every label is in one member, so no bucket above rank 0 exceeds b: the
# drain decides only at rank 0, taking the 64 > b^2 disjoint members
# whole, which meets the epsilon floor
DECIDED_AT_RANK_ZERO = pinned_case(
    128, 2, [labels_mask([i, 64 + i]) for i in range(64)], 64, 1, 0, 0)


def drain_matches_rescan(top, collection, cfg):
    """Run base_sets' per-rank passes by hand over ranks top down to 0,
    with live sets carried across ranks, and check each rank's
    extractions against the restart scan's: the full-rank pass at r = m',
    the drain below it.  Starting below m' skips the ranks that would
    have drained the big buckets, which leaves more buckets to shrink and
    be decided again."""
    mprime, bases, comps = collection.rank, collection.bases, \
        collection.components
    drained = {key: set(comp) for key, comp in comps.items()}
    rescanned = {key: set(comp) for key, comp in comps.items()}
    thr, b = bs.Threshold(cfg), exact_base(cfg.b)
    for r in range(top, -1, -1):
        got = []
        for key, live in drained.items():
            sub = collection.split.subsplit(key)
            if r == mprime:
                # a whole bucket meets need[m']
                found = bs._full_rank_pass(comps[key], sub.union_mask, live,
                                           thr.need[mprime],
                                           mprime == cfg.m)
            else:
                # a cleaned one is nonempty and, at rank 0, meets the
                # epsilon floor
                found = bs._extractions(r, live, comps[key], sub, bases,
                                        thr.eps_need if r == 0 else 1, b)
            got += [(key, bm, t, "ii" if r == mprime else "i")
                    for bm, t in found]
        assert got == extractions_by_rescan(r, rescanned, collection, cfg)
        assert drained == rescanned


def anchored_collection(family, split, seed):
    """A rank m-1 collection, usually of several components: members
    assigned by ComponentCollection.derive to a seeded random half of
    their projections, anchored on the projections actually used."""
    rank = split.m - 1
    strips = split.strips

    def project(u, key):
        return sum(u & strips[i] for i in key)

    keys = list(combinations(range(split.m), rank))
    pick = Random(seed)
    anchors = {proj for proj in sorted({project(u, key) for u in family.masks()
                                        for key in keys})
               if pick.random() < 0.5}
    anchors.add(project(family.masks()[0], keys[-1]))
    derived, _ = bs.ComponentCollection.derive(
        family, split, rank,
        SetFamily(split.universe, anchors, m=rank))
    used = {project(u, key) for key, comp in derived.components.items()
            for u in comp}
    return bs.ComponentCollection(split, derived.components,
                                  SetFamily(split.universe, used, m=rank))


@SETTINGS
@example(SHRUNK_BUCKET_SPREADS)
@example(REQUEUED_BASE_COMES_FIRST)
@example(COMPONENTS_SHARE_A_BASE)
@example(FAMILY_BUCKET_ONLY)
@given(engine_cases())
def test_drain_matches_restart_scan(case):
    family, split, cfg, top, anchored_top, anchor_seed = case
    drain_matches_rescan(top, bs.ComponentCollection.initial(family, split),
                         cfg)
    drain_matches_rescan(anchored_top,
                         anchored_collection(family, split, anchor_seed), cfg)


def test_requeued_base_comes_first_requeues_a_passed_base(monkeypatch):
    # the bucket of {6} is counted and emptied, so {6} is passed over, not
    # dropped; the take at {9} re-queues it, and it is the next base taken
    family, split, cfg, top, *_ = REQUEUED_BASE_COMES_FIRST
    pushed, real_push = [], bs.heappush

    def push(heap, i):
        pushed.append(i)
        real_push(heap, i)

    monkeypatch.setattr(bs, "heappush", push)
    coll = bs.ComponentCollection.initial(family, split)
    (key, comp), = coll.components.items()
    found = bs._extractions(top, set(comp), comp, split.subsplit(key),
                            coll.bases, 1, exact_base(cfg.b))
    assert [bm for bm, _ in found][:2] == [1 << 9, 1 << 6]
    assert pushed
    drain_matches_rescan(top, coll, cfg)


@SETTINGS
@given(engine_cases(), st.sampled_from([1, 2, 3, math.inf]))
def test_full_rank_pass_matches_grouping(case, floor):
    # a component keyed by every strip skips grouping at a floor above 1;
    # one keyed by fewer strips, or at floor 1, groups: all as the grouped
    # pass
    family, split, cfg, _, _, anchor_seed = case
    for coll in (bs.ComponentCollection.initial(family, split),
                 anchored_collection(family, split, anchor_seed)):
        full = coll.rank == split.m
        for key, comp in coll.components.items():
            union = split.subsplit(key).union_mask
            live, grouped_live = set(comp), set(comp)
            assert list(bs._full_rank_pass(comp, union, live, floor,
                                           full)) == \
                full_rank_pass_by_grouping(comp, union, grouped_live, floor)
            assert live == grouped_live


def engine_matches_rescan(family, split, cfg):
    """Replay every engine call of process_r with the restart-scan oracle,
    from the same input: the engine's trace rows are the oracle's
    extractions rank by rank, down to the rank the call returns, whose
    parts are the oracle's.  The oracle decides every candidate base in
    the bases' shadow, with a fresh violator search per removal, so
    neither the engine's candidate pre-filter nor its per-drain cleaning
    state reaches it.  Returns the driver's result, or None when it
    raised."""
    try:
        res = bs.process_r(family, split, cfg)
        steps, failed = res.steps, None
    except (ContractViolationError, ValueError) as exc:
        res, steps, failed = None, exc.partial_steps, exc
    calls = [(step.r_in, step.output) for step in steps]
    if isinstance(failed, ContractViolationError):
        calls.append((steps[-1].output.r if steps else cfg.m, None))
    collection = bs.ComponentCollection.initial(family, split)
    for mprime, out in calls:
        work = {key: set(comp) for key, comp in collection.components.items()}
        size = sum(len(comp) for comp in work.values())
        rows = []
        for r in range(mprime, -1, -1):
            found = extractions_by_rescan(r, work, collection, cfg)
            rows += [(r, bm, key, len(t)) for key, bm, t, _ in found]
            if sum(len(t) for *_, t, _ in found) * 3 ** (mprime - r + 1) \
                    >= size:
                break
        # a failure's trace holds the completed steps' rows first
        trace = out.trace if out is not None else failed.trace[sum(
            len(step.output.trace) for step in steps):]
        assert rows == [(row["r"], labels_mask(row["B"]), tuple(row["Xprime"]),
                         row["sizeT"]) for row in trace]
        if out is None:
            break
        assert out.r == r
        assert [(p.key, p.B, p.T, p.variant) for p in out.parts] == \
            [(key, bm, tuple(t), variant) for key, bm, t, variant in found]
        collection = collection.regroup(out)
    return res


@SETTINGS
@example(SHRUNK_BUCKET_SPREADS)
@example(REQUEUED_BASE_COMES_FIRST)
@example(COMPONENTS_SHARE_A_BASE)
@example(SMALL_BUCKETS_OVERLAP)
@example(DISJOINT_AT_B_SQUARED)
@example(DISJOINT_TIE_AT_B_SQUARED)
@example(DECIDED_AT_RANK_ZERO)
@given(engine_cases())
def test_engine_extractions_match_restart_scan(case):
    family, split, cfg, *_ = case
    engine_matches_rescan(family, split, cfg)


def test_bench_constants_decide_no_full_rank_candidate():
    # an engine-fixpoint input of the bench: 300 random one-per-strip
    # members over the 3-split of 24 labels.  need[3] = 4 and every
    # full-rank bucket (a projection group onto all three strips) is one
    # member, so step 1's full-rank pass takes nothing, as the oracle,
    # deciding all 300, does not
    rng = Random("engine-fixpoint/901/0")
    masks = [1 << (r // 64) | 1 << (8 + r // 8 % 8) | 1 << (16 + r % 8)
             for r in rng.sample(range(512), 300)]
    split = Split.contiguous(24, 3)
    family = SetFamily(split.universe, masks, m=3)
    cfg = bs.Constants(0.995, 1.0005, 1.001, 2, 3, 300)
    assert bs.Threshold(cfg).need == (10, 7, 5, 4)
    live = set(masks)
    assert list(bs._full_rank_pass(family.masks(),
                                   split.full_subsplit().union_mask, live,
                                   4, True)) == []
    assert live == set(masks)
    res = engine_matches_rescan(family, split, cfg)
    assert res.steps[0].output.trace[0]["r"] < 3
