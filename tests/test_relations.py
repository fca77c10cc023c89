"""Relations between two runs of the program, checked at sizes no brute
oracle reaches: the same family with its rows reversed, the same family
with its labels permuted, and a transversal count past the member scan.
The engine commands get the first of these on an m = 4 input whose drain
runs counted cleanings.

Each relation is exact, so it holds at any size.  The families are
seeded and fixed, so every run checks the same commands on the same
inputs.
"""

from __future__ import annotations

import json

import pytest

from sunflower.cli import main
from sunflower.errors import BudgetExceededError
from sunflower.families import SetFamily, Split, mask_labels
from sunflower.harness import generate_random_family
from sunflower.rng import CounterRng
from sunflower.splits import transversal_count_brute, transversal_formula

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


def reversed_rows(family: SetFamily) -> str:
    header, *rows = family.to_text().splitlines()
    return "\n".join([header, *reversed(rows)]) + "\n"


def permuted(family: SetFamily, seed: int) -> SetFamily:
    n = family.universe.n
    perm = list(range(n))
    CounterRng(seed).shuffle(perm)
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
]


@pytest.mark.parametrize("family, command, key, verdict", MEMBER_ORDER,
                         ids=[" ".join(c) for _, c, _, _ in MEMBER_ORDER])
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
