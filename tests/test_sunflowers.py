from __future__ import annotations

import gc
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from sunflower import families, gamma, sunflowers
from sunflower.errors import BudgetExceededError, GammaPreconditionError
from sunflower.extremal import build_extremal
from sunflower.families import (GroundSet, SetFamily, Universe,
                                _canonical_key, labels_mask)
from sunflower.rng import CounterRng
from sunflower.sunflowers import (
    SunflowerCertificate,
    extract_disjoint_via_gamma,
    find_sunflower_exact,
    verify_certificate,
)

from oracles import find_sunflower_backtrack, sunflower_free_check_oracle


def random_family(n: int, m: int, size: int, seed: int) -> SetFamily:
    rng = CounterRng(seed)
    combos = list(combinations(range(n), m))
    picks = rng.sample(range(len(combos)), size)
    return SetFamily.of(n, [combos[i] for i in picks], m=m)


def all_m_subsets(n: int, m: int) -> SetFamily:
    return SetFamily.of(n, combinations(range(n), m), m=m)


def cert_of(n: int, petals, core) -> SunflowerCertificate:
    uni = Universe(n)
    return SunflowerCertificate(
        tuple(GroundSet(uni, labels_mask(p)) for p in petals),
        GroundSet(uni, labels_mask(core)))


def test_certificate_shape_validation():
    with pytest.raises(ValueError):
        cert_of(4, [[0, 1]], [])
    with pytest.raises(ValueError):
        SunflowerCertificate(
            (GroundSet(Universe(4), labels_mask([0])),
             GroundSet(Universe(5), labels_mask([1]))),
            GroundSet(Universe(4), 0))
    cert = cert_of(4, [[0, 1], [0, 2], [0, 3]], [0])
    assert cert.k == 3
    assert cert.to_json_obj() == {"core": [0],
                                  "petals": [[0, 1], [0, 2], [0, 3]]}


def test_verify_certificate_positive():
    assert verify_certificate(cert_of(6, [[0, 1], [2, 3], [4, 5]], []))
    assert verify_certificate(cert_of(6, [[0, 1], [0, 2], [0, 3]], [0]))
    # petals may equal the core plus nothing on one side
    assert verify_certificate(cert_of(6, [[0], [0, 1]], [0]))


def test_verify_certificate_negative():
    # repeated petal
    assert not verify_certificate(cert_of(6, [[0, 1], [0, 1]], [0, 1]))
    # one pair intersects above the core
    assert not verify_certificate(cert_of(6, [[0, 1], [0, 2], [1, 2]], []))
    # claimed core disjoint from the petals
    assert not verify_certificate(cert_of(6, [[1], [2]], [0]))


def test_find_sunflower_exact_star():
    fam = all_m_subsets(4, 2)
    cert = find_sunflower_exact(fam, 3)
    assert cert is not None
    assert cert.core.labels() == (0,)
    assert [p.labels() for p in cert.petals] == [(0, 1), (0, 2), (0, 3)]
    assert verify_certificate(cert)
    for petal in cert.petals:
        assert petal in fam


def test_find_sunflower_exact_disjoint_pair():
    fam = SetFamily.of(4, [[0, 2], [0, 3], [1, 2], [1, 3]])
    cert = find_sunflower_exact(fam, 2)
    assert cert is not None
    assert cert.core.labels() == ()
    assert [p.labels() for p in cert.petals] == [(0, 2), (1, 3)]
    assert verify_certificate(cert)


def test_find_sunflower_exact_absence_is_proven():
    fam = SetFamily.of(4, [[0, 2], [0, 3], [1, 2], [1, 3]])
    assert find_sunflower_exact(fam, 3) is None
    assert sunflower_free_check_oracle(fam, 3) is True
    small = SetFamily.of(4, [[0, 1]])
    assert find_sunflower_exact(small, 2) is None


def test_find_sunflower_exact_validation_and_budget():
    fam = all_m_subsets(4, 2)
    with pytest.raises(ValueError):
        find_sunflower_exact(fam, 1)
    with pytest.raises(BudgetExceededError):
        find_sunflower_exact(fam, 3, node_budget=1)


def test_find_sunflower_exact_shadow_budget_carries_need():
    fam = all_m_subsets(5, 2)
    need = 10 * 2 ** 2
    with pytest.raises(BudgetExceededError) as info:
        find_sunflower_exact(fam, 3, shadow_budget=need - 1)
    assert (info.value.needed, info.value.budget) == (need, need - 1)
    assert find_sunflower_exact(fam, 3, shadow_budget=need) is not None


def test_find_sunflower_exact_node_count():
    # a node is a partial sunflower: the star's first core {0} is hit
    # directly, (0,1) then (0,2) then (0,3), so k = 3 nodes
    fam = all_m_subsets(4, 2)
    cert = find_sunflower_exact(fam, 3, node_budget=3)
    assert [p.labels() for p in cert.petals] == [(0, 1), (0, 2), (0, 3)]
    with pytest.raises(BudgetExceededError) as info:
        find_sunflower_exact(fam, 3, node_budget=2)
    assert (info.value.needed, info.value.budget) == (3, 2)
    # no member of the (3,6) product has two links under one key, so no
    # core is searched and absence costs no node
    product = build_extremal(3, 6)
    assert find_sunflower_exact(product, 3, node_budget=1) is None


def test_find_sunflower_exact_deep_search():
    # one petal per level: 1000 singletons hold one 1000-sunflower, found
    # as a direct hit of k nodes, deeper than the interpreter's call stack
    fam = SetFamily.of(1000, [[i] for i in range(1000)])
    cert = find_sunflower_exact(fam, 1000, node_budget=1000)
    assert verify_certificate(cert)
    assert cert.core.labels() == ()
    assert [p.labels() for p in cert.petals] == [(i,) for i in range(1000)]
    with pytest.raises(BudgetExceededError) as info:
        find_sunflower_exact(fam, 1000, node_budget=999)
    assert (info.value.needed, info.value.budget) == (1000, 999)


def test_find_sunflower_exact_repeated_trace_rows():
    # 60 petals on a 10-label core: every row is one trace, repeated,
    # which links every later member; the certificate is the oracle's
    core = list(range(10))
    fam = SetFamily.of(70, [core + [10 + i] for i in range(60)])
    for k in (2, 3, 60):
        cert = find_sunflower_exact(fam, k)
        assert cert == find_sunflower_backtrack(fam, k)
        assert verify_certificate(cert)
    assert cert.core.labels() == tuple(core)
    assert find_sunflower_exact(fam, 61) is None


# One family per row path of the pair pass, with its k and the nodes N its
# search visits up to the first certificate: the (3,3) product plus
# {2, 3, 4}, whose repeat rows drop fewer than half of their links; two
# stars on cores sharing labels 2 and 3, whose rows drop most links or
# keep one trace; a star, whose first row keeps one trace; the 3-sets of
# 6 labels, whose first rows outnumber the 8 submasks of their member;
# and k = 2, where every row takes the OR loop.
PRODUCT_3_3_PLUS = SetFamily(
    Universe(6),
    build_extremal(3, 3).masks() + (labels_mask([2, 3, 4]),), m=3)
ROW_PATH_NODES = {
    "few-dropped": (PRODUCT_3_3_PLUS, 3, 5),
    "most-dropped": (SetFamily.of(14, [[0, 1, 2, 3, x] for x in range(6, 10)]
                                  + [[2, 3, 4, 5, x] for x in range(10, 14)]),
                     3, 7),
    "one-trace": (SetFamily.of(6, [[0, x] for x in range(1, 6)]), 3, 3),
    "long-rows": (all_m_subsets(6, 3), 3, 27),
    "k2": (PRODUCT_3_3_PLUS, 2, 2),
}


@pytest.mark.parametrize("fam, k, nodes", ROW_PATH_NODES.values(),
                         ids=ROW_PATH_NODES.keys())
def test_find_sunflower_exact_node_count_per_row_path(fam, k, nodes):
    # the row paths change how rows are built, not what the search visits
    cert = find_sunflower_exact(fam, k, node_budget=nodes)
    assert cert == find_sunflower_backtrack(fam, k)
    with pytest.raises(BudgetExceededError) as info:
        find_sunflower_exact(fam, k, node_budget=nodes - 1)
    assert (info.value.needed, info.value.budget) == (nodes, nodes - 1)


def test_find_sunflower_exact_leaves_no_table_behind():
    # with collections off, two searches must not leave their rows behind
    # in a reference cycle
    product = build_extremal(3, 6)
    uni = Universe(18)
    plus = SetFamily(uni, product.masks()
                     + (labels_mask([0, 1, 2, 3, 12, 13]),), m=6)
    gc.disable()
    try:
        tracemalloc.start()
        try:
            assert find_sunflower_exact(product, 3) is None
            assert find_sunflower_exact(plus, 3) is not None
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    assert retained < 64 * 1024


def test_search_agrees_with_oracle():
    for seed in range(20):
        fam = random_family(7, 2, 8, seed=seed)
        for k in (2, 3):
            found = find_sunflower_exact(fam, k)
            free = sunflower_free_check_oracle(fam, k)
            assert free == (found is None)
            if found is not None:
                assert verify_certificate(found)
                assert found.k == k
                for petal in found.petals:
                    assert petal in fam


def test_oracle_validation_and_budget():
    fam = all_m_subsets(4, 2)
    with pytest.raises(ValueError):
        sunflower_free_check_oracle(fam, 0)
    with pytest.raises(BudgetExceededError):
        sunflower_free_check_oracle(fam, 3, budget=1)
    assert sunflower_free_check_oracle(SetFamily.of(4, [[0, 1]]), 2) is True


def test_extract_disjoint_singletons():
    fam = SetFamily.of(10, [[i] for i in range(10)])
    cert = extract_disjoint_via_gamma(fam, 3, 3)
    assert cert is not None
    assert [p.labels() for p in cert.petals] == [(0,), (1,), (2,)]
    assert cert.core.labels() == ()
    assert verify_certificate(cert)
    wide = extract_disjoint_via_gamma(SetFamily.of(12, [[i] for i in range(12)]),
                                      4, 4)
    assert [p.labels() for p in wide.petals] == [(0,), (1,), (2,), (3,)]


def test_extract_disjoint_grid_family():
    # the full bipartite product is 5-spread; greedy walks the diagonal
    fam = SetFamily.of(16, [[x, y] for x in range(8) for y in range(8, 16)])
    cert = extract_disjoint_via_gamma(fam, 2, 5)
    assert [p.labels() for p in cert.petals] == [(0, 8), (1, 9)]
    assert verify_certificate(cert)


def test_extract_disjoint_precondition_failure():
    fam = SetFamily.of(4, [[0, 1], [0, 2], [0, 3]])
    with pytest.raises(GammaPreconditionError) as info:
        extract_disjoint_via_gamma(fam, 2, 4)
    assert info.value.report.witness.labels() == (0, 1)
    assert info.value.report.ratio == Fraction(16, 3)


def test_extract_disjoint_stalls_outside_guarantee():
    # spread at b = 7/5, but greedy's first pick meets every other member
    # and 7/5 < k * m = 4 promises nothing
    fam = SetFamily.of(3, [[0, 1], [0, 2], [1, 2]])
    assert extract_disjoint_via_gamma(fam, 2, Fraction(7, 5)) is None


def test_extract_disjoint_guaranteed_regime_never_stalls():
    # spread families with b >= k * m must yield k pairwise-disjoint members
    from sunflower.gamma import check_gamma
    count = 0
    for seed in range(40):
        fam = random_family(12, 2, 30, seed=300 + seed)
        if not check_gamma(fam, 4).holds:
            continue
        count += 1
        cert = extract_disjoint_via_gamma(fam, 2, 4)
        assert cert is not None
        assert verify_certificate(cert)
        a, b = cert.petals
        assert a.bits & b.bits == 0
    assert count >= 10  # the sample kept the regime populated


def test_spread_checks_sort_no_member(monkeypatch):
    # counts need no member order, so check_gamma on a fresh family
    # computes no canonical key and leaves the canonical tuple unbuilt;
    # the greedy keys only members of the buckets it picks from
    keyed = []

    def key(mask):
        keyed.append(mask)
        return _canonical_key(mask)

    for module in (families, gamma, sunflowers):
        monkeypatch.setattr(module, "_canonical_key", key)
    fam = random_family(30, 3, 400, seed=5)
    assert gamma.check_gamma(fam, 6).holds
    assert fam._masks is None and keyed == []
    cert = extract_disjoint_via_gamma(fam, 2, 6)
    assert fam._masks is None
    assert [p.labels() for p in cert.petals] == [(0, 1, 2), (3, 4, 12)]
    # labels 1 and 2 meet the first pick: their buckets are not read
    assert keyed and {u & -u for u in keyed} == {1 << 0, 1 << 3}
    assert len(keyed) < len(fam) // 4


def test_extract_disjoint_validation():
    fam = SetFamily.of(10, [[i] for i in range(10)])
    with pytest.raises(ValueError):
        extract_disjoint_via_gamma(fam, 1, 3)
    with pytest.raises(ValueError):
        extract_disjoint_via_gamma(fam, 2, 1)
