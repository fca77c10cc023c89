"""The lazy package namespace, the modules each CLI command imports, and
the hand-written value classes on every analysis command's import path."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sunflower
from sunflower.basesets import (ComponentCollection, Constants,
                                ElementaryPart, process_r)
from sunflower.errors import UniverseMismatchError
from sunflower.families import (GroundSet, SetFamily, Split, Subsplit,
                                Universe, labels_mask)
from sunflower.gamma import GammaReport, check_gamma_on_subsplit
from sunflower.harness import generate_random_family
from sunflower.sunflowers import SunflowerCertificate

SRC = Path(__file__).resolve().parents[1] / "src"

# The package's public names, by defining module.
EXPORTED = {
    "basesets": ["BaseSetsOutput", "ComponentCollection", "Constants",
                 "ElementaryPart", "ProcessRResult", "ProcessStep",
                 "Threshold", "audit_terminal_bases", "base_sets",
                 "constants_from_dict", "canonical_constants", "process_r"],
    "errors": ["BudgetExceededError", "ContractViolationError",
               "GammaPreconditionError", "TrialsExhaustedError",
               "UniverseMismatchError"],
    "extremal": ["build_extremal"],
    "families": ["GroundSet", "SetFamily", "Split", "Subsplit", "Universe",
                 "family_from_json_obj", "family_from_text", "pad_universe"],
    "gamma": ["GammaReport", "check_gamma", "check_gamma_on_subsplit"],
    "harness": ["generate_random_family"],
    "rng": ["CounterRng"],
    "splits": ["SplitSearchResult", "count_splits", "enumerate_splits",
               "find_good_split", "retention_bound",
               "transversal_count_brute", "transversal_formula"],
    "sunflowers": ["SunflowerCertificate", "extract_disjoint_via_gamma",
                   "find_sunflower_exact", "verify_certificate"],
}

# Run in a new interpreter: argv[1] is a JSON list of steps, each an argv
# run through cli.main or an expression to evaluate; prints each step's
# exit code or repr, and the loaded module names.
CHILD = """
import contextlib, io, json, sys
import sunflower
from sunflower import cli
results = []
for step in json.loads(sys.argv[1]):
    if isinstance(step, str):
        results.append(repr(eval(step)))
        continue
    with contextlib.redirect_stdout(io.StringIO()):
        results.append(cli.main(step))
print(json.dumps({"results": results, "modules": sorted(sys.modules)}))
"""


def _child(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def run_child(steps) -> tuple[list, set[str]]:
    """(results, loaded module names) of ``steps`` in a new interpreter."""
    out = json.loads(_child(CHILD, json.dumps(steps)))
    return out["results"], set(out["modules"])


def test_every_public_name_resolves_to_its_defining_object():
    for module, names in EXPORTED.items():
        mod = importlib.import_module(f"sunflower.{module}")
        for name in names:
            assert getattr(sunflower, name) is getattr(mod, name), name
        assert getattr(sunflower, module) is mod
    assert sorted(sunflower.__all__) == sorted(
        name for names in EXPORTED.values() for name in names)
    assert len(sunflower.__all__) == 42


# Second spellings of one operation, removed from the package: the
# extremal builder returns its SetFamily, the family writes itself
# (to_text, to_json_obj), and a split's retained members are
# family.on_subsplit(split.full_subsplit(), split.m).
REMOVED_NAMES = ["ExtremalFamily", "family_to_text", "family_to_json_obj",
                 "retained_on"]


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(sunflower, name)
    assert name not in sunflower.__all__


# Pass-through methods removed in favour of the code they called:
# GroundSet(universe, mask), split.subsplit(key), and the part's key strips
# that its base meets.
REMOVED_METHODS = [(Universe, "set_of"), (Universe, "from_bits"),
                   (Universe, "empty"), (ComponentCollection, "subsplit"),
                   (ElementaryPart, "base_strips")]


@pytest.mark.parametrize("cls, name", REMOVED_METHODS,
                         ids=[f"{c.__name__}.{n}" for c, n in REMOVED_METHODS])
def test_removed_methods_are_gone(cls, name):
    assert not hasattr(cls, name)


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from sunflower import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(sunflower.__all__)
    assert all(namespace[name] is getattr(sunflower, name)
               for name in namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name") as info:
        sunflower.no_such_name
    assert not isinstance(info.value, ImportError)
    assert not hasattr(sunflower, "no_such_name")
    with pytest.raises(ImportError):
        exec("from sunflower import no_such_name", {})


def test_names_and_submodules_load_on_first_access():
    results, loaded = run_child([
        "sorted(m for m in sys.modules if m.startswith('sunflower.'))",
        "sunflower.check_gamma.__module__",
        "sunflower.splits.__name__",
        "'sunflower.basesets' in sys.modules"])
    # the child's own "from sunflower import cli" loads errors and families
    assert results == [repr(["sunflower.cli", "sunflower.errors",
                             "sunflower.families"]),
                       repr("sunflower.gamma"), repr("sunflower.splits"),
                       "False"]
    assert {"sunflower.gamma", "sunflower.splits"} <= loaded


def test_analysis_commands_import_only_their_modules(tmp_path):
    fam = tmp_path / "singletons.txt"
    fam.write_text(SetFamily.of(10, [[i] for i in range(10)]).to_text())
    results, loaded = run_child([
        ["check-gamma", str(fam), "--b", "3"],
        ["find-sunflower", str(fam), "--k", "3"],
        ["find-sunflower", str(fam), "--k", "3", "--gamma", "3"]])
    assert results == [0, 0, 0]
    assert {"sunflower.gamma", "sunflower.sunflowers"} <= loaded
    assert not loaded & {"sunflower.basesets", "sunflower.splits",
                         "sunflower.harness", "sunflower.rng",
                         "sunflower.extremal"}
    bare = _child("import sys; print('dataclasses' in sys.modules)")
    if bare.strip() == "False":
        assert "dataclasses" not in loaded


def test_process_r_imports_no_search_modules(tmp_path):
    fam = tmp_path / "immediate.txt"
    fam.write_text(SetFamily.of(4, [[0, 2], [0, 3], [1, 2], [1, 3]]).to_text())
    cfg = tmp_path / "constants.json"
    cfg.write_text(json.dumps({"epsilon": 0.5, "h": 1.2, "c": 1.5, "k": 2,
                               "m": 2, "famSize": 4}))
    results, loaded = run_child(
        [["process-r", str(fam), "--constants", str(cfg)]])
    assert results == [0]
    assert "sunflower.basesets" in loaded
    assert not loaded & {"sunflower.splits", "sunflower.harness",
                         "sunflower.sunflowers"}


def test_gen_random_imports_no_search_modules():
    results, loaded = run_child(
        [["gen-random", "--n", "9", "--m", "3", "--size", "5", "--seed", "1"]])
    assert results == [0]
    assert {"sunflower.harness", "sunflower.rng"} <= loaded
    assert not loaded & {"sunflower.sunflowers", "sunflower.gamma",
                         "sunflower.extremal"}


def test_command_paths_load_no_dataclasses(tmp_path):
    # the engine, split, transversal and generator commands build their
    # results from hand-written value classes
    fam = tmp_path / "immediate.txt"
    fam.write_text(SetFamily.of(4, [[0, 2], [0, 3], [1, 2], [1, 3]]).to_text())
    cfg = tmp_path / "constants.json"
    cfg.write_text(json.dumps({"epsilon": 0.5, "h": 1.2, "c": 1.5, "k": 2,
                               "m": 2, "famSize": 4}))
    triples = tmp_path / "triples.txt"
    triples.write_text(SetFamily.of(9, [[0, 3, 6], [1, 4, 7], [2, 5, 8],
                                        [0, 4, 8]]).to_text())
    results, loaded = run_child([
        ["process-r", str(fam), "--constants", str(cfg)],
        ["basesets", str(fam), "--mprime", "2", "--constants", str(cfg)],
        ["split", str(triples)],
        ["transversal-check", str(triples), "--j", "2"],
        ["gen-random", "--n", "9", "--m", "3", "--size", "5"],
        ["gen-extremal", "--k", "3", "--m", "2"]])
    assert results == [0] * 6
    assert {"sunflower.basesets", "sunflower.splits", "sunflower.harness",
            "sunflower.extremal"} <= loaded
    bare = _child("import sys; print('dataclasses' in sys.modules)")
    if bare.strip() == "False":
        assert "dataclasses" not in loaded


def test_random_split_loads_no_openssl(tmp_path):
    # CounterRng hashes with the interpreter's built-in SHA-256, not
    # hashlib's OpenSSL module
    triples = tmp_path / "triples.txt"
    triples.write_text(SetFamily.of(9, [[0, 3, 6], [1, 4, 7], [2, 5, 8],
                                        [0, 4, 8]]).to_text())
    results, loaded = run_child(
        [["split", str(triples), "--mode", "random", "--seed", "3"]])
    assert results == [0]
    assert "sunflower.rng" in loaded
    bare = _child("import sys; print('_hashlib' in sys.modules)")
    if bare.strip() == "False":
        assert "_hashlib" not in loaded


def _value_cases():
    """(object, an equal object built separately, an unequal object, the
    repr, one attribute) per value class."""
    uni = Universe(4)
    split = Split.contiguous(4, 2)
    a, b = (GroundSet(uni, labels_mask(s)) for s in ([0, 1], [0, 2]))
    core = GroundSet(uni, labels_mask([0]))
    return [
        (uni, Universe(n=4), Universe(5), "Universe(n=4)", "n"),
        (split, Split(Universe(4), (3, 12)), Split.contiguous(4, 4),
         "Split(universe=Universe(n=4), strips=(3, 12))", "strips"),
        (split.subsplit([1]), Subsplit(Split.contiguous(4, 2), (1,)),
         split.subsplit([0]),
         "Subsplit(split=Split(universe=Universe(n=4), strips=(3, 12)), "
         "indices=(1,))", "union_mask"),
        (GammaReport(False, a, Fraction(3, 2)),
         GammaReport(holds=False,
                     witness=GroundSet(uni, labels_mask([0, 1])),
                     ratio=Fraction(6, 4)),
         GammaReport(False, b, Fraction(3, 2)),
         "GammaReport(holds=False, witness={0,1}, ratio=Fraction(3, 2))",
         "holds"),
        (SunflowerCertificate((a, b), core),
         SunflowerCertificate(petals=(GroundSet(uni, labels_mask([0, 1])), b),
                              core=GroundSet(uni, labels_mask([0]))),
         SunflowerCertificate((b, a), core),
         "SunflowerCertificate(petals=({0,1}, {0,2}), core={0})", "core"),
        # the former dataclasses print as they did
        (Constants(0.5, 1.2, 1.5, 2, 2, 4),
         Constants(epsilon=0.5, h=1.2, c=1.5, k=2, m=2, fam_size=4),
         Constants(0.5, 1.2, 1.5, 2, 2),
         "Constants(epsilon=0.5, h=1.2, c=1.5, k=2, m=2, fam_size=4, "
         "mode='surrogate')", "fam_size"),
        (ElementaryPart(1, (0,), (5,), "ii"),
         ElementaryPart(B=1, key=(0,), T=(5,), variant="ii"),
         ElementaryPart(1, (0,), (5,), "i"),
         "ElementaryPart(B=1, key=(0,), T=(5,), variant='ii')", "T"),
    ]


VALUE_CASES = _value_cases()


@pytest.mark.parametrize("obj, same, other, text, attr", VALUE_CASES,
                         ids=[type(case[0]).__name__ for case in VALUE_CASES])
def test_value_classes(obj, same, other, text, attr):
    assert obj == same and hash(obj) == hash(same)
    assert obj != other
    # another type is not equal, and is left to decide for itself
    assert obj.__eq__(attr) is NotImplemented and obj != attr
    assert repr(obj) == text
    with pytest.raises(AttributeError):
        setattr(obj, attr, None)
    with pytest.raises(AttributeError):
        delattr(obj, attr)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")


def test_subsplit_equality_reads_split_and_indices_only():
    split = Split.contiguous(6, 3)
    sub = split.subsplit([0, 2])
    # the derived masks take no part in equality, hash or repr
    assert sub.strip_masks == (split.strips[0], split.strips[2])
    assert sub.union_mask == split.strips[0] | split.strips[2]
    assert {sub: 1}[split.subsplit((0, 2))] == 1
    assert "union_mask" not in repr(sub) and "strip_masks" not in repr(sub)
    assert split.subsplit([0, 1]) != sub


# A family on the 2-split of 4 labels, its engine constants, and a family,
# a set and a split over 6 labels.
ON_SPLIT4 = SetFamily.of(4, [[0, 2], [0, 3], [1, 2], [1, 3]])
SPLIT4 = Split.contiguous(4, 2)
CFG4 = Constants(0.5, 1.2, 1.5, 2, 2, 4)
OTHER6 = SetFamily.of(6, [[0, 3]])
SET6 = GroundSet(Universe(6), labels_mask([0]))
SPLIT6 = Split.contiguous(6, 2)

UNIVERSE_MISMATCHES = {
    "restrict": lambda: ON_SPLIT4.restrict(SET6),
    "shadow_contains": lambda: ON_SPLIT4.shadow_contains(SET6),
    "on_subsplit": lambda: ON_SPLIT4.on_subsplit(SPLIT6.full_subsplit(), 2),
    "difference": lambda: ON_SPLIT4.difference(OTHER6),
    "check_gamma_on_subsplit-subsplit": lambda: check_gamma_on_subsplit(
        ON_SPLIT4, SPLIT6.full_subsplit(), ON_SPLIT4, 2),
    "check_gamma_on_subsplit-over": lambda: check_gamma_on_subsplit(
        ON_SPLIT4, SPLIT4.full_subsplit(), OTHER6, 2),
    "ComponentCollection.initial": lambda: ComponentCollection.initial(
        ON_SPLIT4, SPLIT6),
    "ComponentCollection.derive-split": lambda: ComponentCollection.derive(
        ON_SPLIT4, SPLIT6, 1, ON_SPLIT4),
    "ComponentCollection.derive-anchors": lambda: ComponentCollection.derive(
        ON_SPLIT4, SPLIT4, 1, OTHER6),
    "ComponentCollection-bases": lambda: ComponentCollection(
        SPLIT4, {(0, 1): ON_SPLIT4.masks()}, OTHER6),
    "process_r": lambda: process_r(ON_SPLIT4, SPLIT6, CFG4),
    "generate_random_family": lambda: generate_random_family(
        4, 2, 2, seed=0, on_split=SPLIT6),
    "SunflowerCertificate": lambda: SunflowerCertificate(
        (GroundSet(Universe(4), labels_mask([0])),
         GroundSet(Universe(4), labels_mask([1]))), SET6),
}


@pytest.mark.parametrize("call", UNIVERSE_MISMATCHES.values(),
                         ids=UNIVERSE_MISMATCHES.keys())
def test_universe_mismatches_raise_one_type(call):
    # every check that two objects share a universe raises
    # UniverseMismatchError, a ValueError (CLI exit code 5), naming it
    with pytest.raises(UniverseMismatchError, match="universe"):
        call()
