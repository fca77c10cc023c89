"""Relations between two runs of the program, checked at sizes no brute
oracle reaches: the same family with its rows reversed, the same family
with its labels permuted (for check-gamma, find-sunflower, split and
transversal-check), and a transversal count past the member scan.
The engine commands get the first of these on an m = 4 input whose drain
runs counted cleanings.

Each relation is exact, so it holds at any size.  The families are
seeded and fixed, so every run checks the same commands on the same
inputs.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from sunflower.cli import main
from sunflower.errors import BudgetExceededError
from sunflower.extremal import build_extremal
from sunflower.families import (GroundSet, SetFamily, Split, labels_mask,
                                mask_labels)
from sunflower.harness import generate_random_family
from sunflower.rng import CounterRng
from sunflower.splits import transversal_count_brute, transversal_formula
from sunflower.sunflowers import SunflowerCertificate, verify_certificate

from test_sunflowers import ROW_PATH_NODES

# 400 3-sets on 30 labels: 6-spread, not 20-spread
SPREAD = generate_random_family(30, 3, 400, seed=5)
# 60 3-sets on 12 labels: 5,775 splits, 34,650 ordered disjoint pairs
SPLIT = generate_random_family(12, 3, 60, seed=5)
# the CI's m = 4 engine input, `gen-random --n 32 --m 4 --size 1000
# --on-split --seed 1`, under the bench constants
ENGINE = generate_random_family(32, 4, 1000, seed=1,
                                on_split=Split.contiguous(32, 4))
ENGINE_CONSTANTS = {"epsilon": 0.995, "h": 1.0005, "c": 1.001, "k": 2,
                    "m": 4}
# the find-sunflower pair pass's row paths with a present 3-sunflower
# whose rows drop few links (the (3,3) product plus {2, 3, 4}) and most
# links (two stars on cores sharing labels 2 and 3)
ROW_PATHS = {name: ROW_PATH_NODES[name][0]
             for name in ("few-dropped", "most-dropped")}


def reversed_rows(family: SetFamily) -> str:
    header, *rows = family.to_text().splitlines()
    return "\n".join([header, *reversed(rows)]) + "\n"


def label_permutation(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    CounterRng(seed).shuffle(perm)
    return perm


def permuted(family: SetFamily, seed: int) -> SetFamily:
    n = family.universe.n
    perm = label_permutation(n, seed)
    return SetFamily.of(n, ([perm[x] for x in mask_labels(u)]
                            for u in family.masks()), m=family.m)


def report(capsys, tmp_path, text: str, command: list[str]) -> dict:
    """The command's exit code and report, timings aside, on ``text``."""
    path = tmp_path / "family.txt"
    path.write_text(text)
    code = main([command[0], str(path), *command[1:]])
    out = json.loads(capsys.readouterr().out)
    out.pop("timings")
    return {"exit": code, **out}


# each command with a verdict its report must hold, so the relation
# compares decisions of both kinds: a spreadness check that holds and one
# that fails, found sunflowers, a split that meets its floor and a
# transversal identity that holds
MEMBER_ORDER = [
    (SPREAD, ["check-gamma", "--b", "6"], "holds", True),
    (SPREAD, ["check-gamma", "--b", "20"], "holds", False),
    (SPREAD, ["find-sunflower", "--k", "3"], "verified", True),
    (SPREAD, ["find-sunflower", "--k", "2", "--gamma", "6"], "verified", True),
    (SPLIT, ["split"], "met", True),
    (SPLIT, ["transversal-check", "--j", "2"], "equal", True),
    *((family, ["find-sunflower", "--k", "3"], "verified", True)
      for family in ROW_PATHS.values()),
]


def member_order_id(family: SetFamily, command: list[str]) -> str:
    """The command, after the row path's name for those families."""
    names = [name for name, path in ROW_PATHS.items() if path is family]
    return " ".join([*names, *command])


@pytest.mark.parametrize("family, command, key, verdict", MEMBER_ORDER,
                         ids=[member_order_id(f, c)
                              for f, c, _, _ in MEMBER_ORDER])
def test_member_order_is_no_input(capsys, tmp_path, family, command, key,
                                  verdict):
    forward = report(capsys, tmp_path, family.to_text(), command)
    backward = report(capsys, tmp_path, reversed_rows(family), command)
    assert forward == backward
    assert forward["exit"] == 0
    assert forward["results"][key] is verdict


@pytest.mark.parametrize("command", [["process-r"],
                                     ["basesets", "--mprime", "4"]],
                         ids=["process-r", "basesets --mprime 4"])
def test_engine_member_order_is_no_input(capsys, tmp_path, command):
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps(ENGINE_CONSTANTS))
    command = [*command, "--constants", str(constants)]
    forward = report(capsys, tmp_path, ENGINE.to_text(), command)
    backward = report(capsys, tmp_path, reversed_rows(ENGINE), command)
    assert forward == backward
    assert forward["exit"] == 0
    results = forward["results"]
    if command[0] == "process-r":
        assert results["rHat"] == 1
        assert results["audit"]["all_sandwich_ok"] is True
    else:
        assert sum(p["size"] for p in results["parts"]) == \
            len(results["family"]["sets"]) > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_label_permutation_keeps_split_and_transversal_counts(
        capsys, tmp_path, seed):
    image = permuted(SPLIT, seed)
    assert image.masks() != SPLIT.masks()
    for command, keys in ((["split"], ("retainedSize",)),
                          (["transversal-check", "--j", "2"],
                           ("brute", "equal"))):
        before = report(capsys, tmp_path, SPLIT.to_text(), command)
        after = report(capsys, tmp_path, image.to_text(), command)
        assert [after["results"][key] for key in keys] == \
            [before["results"][key] for key in keys]


@pytest.mark.parametrize("b, verdict", [(6, True), (20, False)])
def test_label_permutation_keeps_the_spreadness_verdict(capsys, tmp_path, b,
                                                        verdict):
    # holds and ratio do not depend on the labels.  The witness is the
    # least label tuple among the maximizers, so the permuted run may name
    # another one; the original witness, permuted, and the one it names
    # both reach the ratio on the permuted family
    image = permuted(SPREAD, 1)
    command = ["check-gamma", "--b", str(b)]
    before = report(capsys, tmp_path, SPREAD.to_text(), command)["results"]
    after = report(capsys, tmp_path, image.to_text(), command)["results"]
    assert (after["holds"], after["ratio"]) == \
        (before["holds"], before["ratio"])
    assert before["holds"] is verdict
    if verdict:
        assert before["witness"] is after["witness"] is None
        return
    perm = label_permutation(SPREAD.universe.n, 1)
    for witness in ([perm[x] for x in before["witness"]], after["witness"]):
        s = labels_mask(witness)
        count = sum(1 for u in image.masks() if u & s == s)
        assert Fraction(count * b ** len(witness), len(image)) == \
            Fraction(*after["ratio"])


@pytest.mark.parametrize("family, seed, found", [
    (SPREAD, 1, True), (SPREAD, 2, True),
    (build_extremal(3, 3), 1, False), (build_extremal(3, 3), 2, False)],
    ids=["spread-1", "spread-2", "product-3-3-1", "product-3-3-2"])
def test_label_permutation_keeps_sunflower_presence(capsys, tmp_path, family,
                                                    seed, found):
    # presence and the exit code do not depend on the labels.  The
    # certificate is the first one the search meets, so the permuted run
    # may find another; the first one, permuted, and the one the permuted
    # run finds are both sunflowers of members of the permuted family
    image = permuted(family, seed)
    assert image.masks() != family.masks()
    command = ["find-sunflower", "--k", "3"]
    before = report(capsys, tmp_path, family.to_text(), command)
    after = report(capsys, tmp_path, image.to_text(), command)
    assert (after["exit"], after["results"]["found"]) == \
        (before["exit"], before["results"]["found"]) == \
        (0 if found else 3, found)
    if not found:
        assert before["results"]["certificate"] is None
        assert after["results"]["certificate"] is None
        return
    n = family.universe.n
    members = set(image.masks())
    for run, relabel in ((before, label_permutation(n, seed)),
                         (after, range(n))):
        cert = run["results"]["certificate"]
        petals = [labels_mask([relabel[x] for x in p])
                  for p in cert["petals"]]
        core = labels_mask([relabel[x] for x in cert["core"]])
        assert len(petals) == 3 and set(petals) <= members
        assert verify_certificate(SunflowerCertificate(
            tuple(GroundSet(image.universe, p) for p in petals),
            GroundSet(image.universe, core)))


def test_transversal_identity_past_the_member_scan():
    # a (12, 3) family has strips of 4 labels and 495 * 70 * 1 = 34,650
    # ordered tuples at j = 3, past the per-tuple scan's reach; the brute
    # count still equals the closed form
    with pytest.raises(BudgetExceededError) as info:
        transversal_count_brute(SPLIT, 3, budget=34_649)
    assert info.value.needed == 34_650
    counts = [transversal_count_brute(SPLIT, j) for j in range(4)]
    assert counts == [transversal_formula(SPLIT, j) for j in range(4)]
    assert counts[0] == len(SPLIT) == 60
    assert all(type(c) is int for c in counts)
