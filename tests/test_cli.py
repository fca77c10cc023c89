"""End-to-end tests for the command line interface."""

from __future__ import annotations

import json
from itertools import combinations

import jsonschema
import pytest

from sunflower import basesets, cli, families, splits, sunflowers
from sunflower.cli import main
from sunflower.errors import ContractViolationError
from sunflower.extremal import build_extremal
from sunflower.families import (GroundSet, SetFamily, Split, family_from_text,
                                mask_labels)
from sunflower.harness import generate_random_family
from sunflower.schemas import (
    CERTIFICATE_SCHEMA,
    FAMILY_SCHEMA,
    GAMMA_REPORT_SCHEMA,
    REPORT_SCHEMA,
    TRACE_ROW_SCHEMA,
)

FULL4 = SetFamily.of(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
IMMEDIATE = SetFamily.of(4, [[0, 2], [0, 3], [1, 2], [1, 3]])
CONSTANTS = {"epsilon": 0.5, "h": 1.2, "c": 1.5, "k": 2, "m": 2, "famSize": 4}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, argv):
    code, out, err = run(capsys, argv)
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report, err


def family_file(tmp_path, family, name="family.txt"):
    path = tmp_path / name
    path.write_text(family.to_text())
    return str(path)


def constants_file(tmp_path, obj, name="constants.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_gen_extremal_text(capsys):
    code, out, err = run(capsys, ["gen-extremal", "--k", "3", "--m", "2"])
    assert code == 0
    assert out == "universe 4 maxcard 2\n0 2\n0 3\n1 2\n1 3\n"


def test_gen_extremal_json(capsys):
    code, out, err = run(capsys, ["gen-extremal", "--k", "3", "--m", "2", "--json"])
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, FAMILY_SCHEMA)
    assert obj == {"n": 4, "m": 2, "sets": [[0, 2], [0, 3], [1, 2], [1, 3]]}
    # keys sorted, compact: the bytes json.dumps(obj, sort_keys=True) writes
    assert out == '{"m": 2, "n": 4, "sets": [[0, 2], [0, 3], [1, 2], [1, 3]]}\n'


def test_gen_random_is_deterministic(capsys):
    argv = ["gen-random", "--n", "8", "--m", "2", "--size", "12",
            "--seed", "7", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, FAMILY_SCHEMA)
    assert obj["sets"][:3] == [[0, 1], [0, 2], [0, 4]]
    assert len(obj["sets"]) == 12
    code2, out2, _ = run(capsys, argv)
    assert out2 == out


def test_family_json_is_one_line(capsys):
    code, out, _ = run(capsys, ["gen-random", "--n", "8", "--m", "2",
                                "--size", "12", "--seed", "7", "--json"])
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    assert len(json.loads(out)["sets"]) == 12


def test_find_sunflower_exact_found(capsys, tmp_path):
    path = family_file(tmp_path, FULL4)
    code, report, _ = run_report(capsys, ["find-sunflower", path, "--k", "3"])
    assert code == 0
    results = report["results"]
    assert results["found"] is True
    assert results["provenAbsent"] is False
    assert results["verified"] is True
    jsonschema.validate(results["certificate"], CERTIFICATE_SCHEMA)
    assert results["certificate"] == {"core": [0],
                                      "petals": [[0, 1], [0, 2], [0, 3]]}


def test_find_sunflower_exact_absent(capsys, tmp_path):
    code, out, _ = run(capsys, ["gen-extremal", "--k", "3", "--m", "2"])
    path = tmp_path / "extremal.txt"
    path.write_text(out)
    code, report, _ = run_report(
        capsys, ["find-sunflower", str(path), "--k", "3"])
    assert code == 3
    assert report["results"] == {"found": False, "provenAbsent": True,
                                 "certificate": None}


def test_find_sunflower_reads_json_and_stdin(capsys, tmp_path, monkeypatch):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(FULL4.to_json_obj()))
    code, report, _ = run_report(
        capsys, ["find-sunflower", str(path), "--k", "3"])
    assert code == 0 and report["results"]["found"] is True

    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(FULL4.to_text()))
    code, report, _ = run_report(capsys, ["find-sunflower", "-", "--k", "3"])
    assert code == 0 and report["results"]["found"] is True


def test_find_sunflower_gamma_with_core(capsys, tmp_path):
    path = family_file(tmp_path, FULL4)
    code, report, _ = run_report(
        capsys,
        ["find-sunflower", path, "--k", "2", "--gamma", "2", "--core", "0"])
    assert code == 0
    assert report["inputs"]["mode"] == "gamma"
    assert report["inputs"]["core"] == [0]
    results = report["results"]
    assert results["verified"] is True
    assert results["certificate"] == {"core": [0], "petals": [[0, 1], [0, 2]]}


def test_find_sunflower_gamma_core_not_present(capsys, tmp_path):
    path = family_file(tmp_path, SetFamily.of(4, [[0, 1], [0, 2]]))
    code, report, _ = run_report(
        capsys,
        ["find-sunflower", path, "--k", "2", "--gamma", "2", "--core", "3"])
    assert code == 3
    assert report["results"]["note"] == "no member contains the requested core"

    code, out, err = run(
        capsys,
        ["find-sunflower", path, "--k", "2", "--gamma", "2", "--core", "9"])
    assert code == 5
    assert err == "error: label 9 outside universe of size 4\n"
    code, out, err = run(
        capsys,
        ["find-sunflower", path, "--k", "2", "--gamma", "2", "--core=-1"])
    assert (code, out) == (5, "")
    assert err == "error: label -1 outside universe of size 4\n"


def test_find_sunflower_core_requires_gamma(capsys, tmp_path):
    # the exact search has no core option: a --core it would ignore is an
    # input error, not a certificate at some other core
    path = family_file(tmp_path, SetFamily.of(
        6, [[0, 1], [0, 2], [0, 3], [4, 5]]))
    code, out, err = run(capsys,
                         ["find-sunflower", path, "--k", "3", "--core", "4"])
    assert (code, out) == (5, "")
    assert err == "error: --core requires --gamma\n"


def test_find_sunflower_gamma_stall_is_budget_exit(capsys, tmp_path):
    path = family_file(tmp_path, SetFamily.of(3, [[0, 1], [0, 2], [1, 2]]))
    code, report, _ = run_report(
        capsys, ["find-sunflower", path, "--k", "2", "--gamma", "7/5"])
    assert code == 4
    assert report["results"]["found"] is False
    assert report["results"]["provenAbsent"] is False
    assert "stalled" in report["results"]["note"]


def test_check_gamma_verdicts(capsys, tmp_path):
    path = family_file(tmp_path, FULL4)
    code, report, _ = run_report(capsys, ["check-gamma", path, "--b", "2"])
    assert code == 0
    jsonschema.validate(report["results"], GAMMA_REPORT_SCHEMA)
    assert report["results"] == {"holds": False, "witness": [0],
                                 "ratio": [1, 1]}

    code, report, _ = run_report(capsys, ["check-gamma", path, "--b", "19/10"])
    assert code == 0
    assert report["results"] == {"holds": True, "witness": None,
                                 "ratio": [19, 20]}


def test_check_gamma_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(FULL4.to_text()))
    code, report, _ = run_report(capsys, ["check-gamma", "-", "--b", "19/10"])
    assert code == 0
    assert report["results"]["holds"] is True


def test_split_exhaustive(capsys, tmp_path):
    path = family_file(tmp_path, FULL4)
    out_path = tmp_path / "retained.txt"
    code, report, _ = run_report(
        capsys, ["split", path, "--emit-family", str(out_path)])
    assert code == 0
    results = report["results"]
    assert results["met"] is True
    assert results["split"] == [[0, 1], [2, 3]]
    assert results["retainedSize"] == 4
    assert results["bound"] == [4, 1]
    jsonschema.validate(results["retained"], FAMILY_SCHEMA)
    emitted = family_from_text(out_path.read_text())
    assert [list(s.labels()) for s in emitted] == [[0, 2], [0, 3], [1, 2], [1, 3]]


def test_split_of_one_label_strips_has_no_depth_limit(capsys, tmp_path):
    # one member on 1,200 labels: its one split has 1,200 strips
    path = family_file(tmp_path, SetFamily.of(1200, [range(1200)]))
    code, report, _ = run_report(capsys, ["split", path])
    assert code == 0
    assert len(report["results"]["split"]) == 1200
    assert report["results"]["retainedSize"] == 1


def test_split_emit_family_write_failure_prints_no_report(capsys, tmp_path):
    path = family_file(tmp_path, FULL4)
    missing = tmp_path / "missing" / "x"
    code, out, err = run(capsys, ["split", path, "--emit-family",
                                  str(missing)])
    assert (code, out) == (5, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert not missing.exists()


@pytest.mark.parametrize("argv", [["process-r"], ["basesets", "--mprime", "2"]])
def test_engine_trace_write_failure_prints_no_report(capsys, tmp_path, argv):
    # the trace is written before the report, so a failed write prints none
    fam_path = family_file(tmp_path, IMMEDIATE)
    cfg_path = constants_file(tmp_path, CONSTANTS)
    missing = tmp_path / "missing" / "t.jsonl"
    code, out, err = run(capsys, [argv[0], fam_path, *argv[1:], "--constants",
                                  cfg_path, "--trace", str(missing)])
    assert (code, out) == (5, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert not missing.exists()


@pytest.mark.parametrize("argv", [["split"], ["transversal-check", "--j", "0"]])
def test_cardinality_zero_family_is_not_a_divisibility_error(capsys, tmp_path,
                                                             argv):
    path = tmp_path / "empty-member.txt"
    path.write_text("universe 4 maxcard 2\n-\n")
    code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
    assert (code, out) == (5, "")
    assert err == "error: member cardinality 0 must be at least 1\n"
    assert "divide" not in err


def test_split_pad_to_widens_the_universe(capsys, tmp_path):
    path = family_file(tmp_path, FULL4)
    code, report, _ = run_report(capsys, ["split", path, "--pad-to", "6"])
    assert code == 0
    assert report["inputs"]["n"] == 6
    assert report["results"]["met"] is True
    assert report["results"]["bound"] == [18, 5]
    assert report["results"]["retainedSize"] >= 4


def test_split_random_modes(capsys, tmp_path):
    path = family_file(tmp_path, SetFamily.of(4, [[0, 1]]))
    code, report, _ = run_report(
        capsys,
        ["split", path, "--mode", "random", "--trials", "1", "--seed", "0"])
    assert code == 4
    assert report["results"] == {"met": False, "bestRetained": 0}

    code, report, _ = run_report(
        capsys,
        ["split", path, "--mode", "random", "--trials", "5", "--seed", "1"])
    assert code == 0
    assert report["results"]["split"] == [[0, 3], [1, 2]]
    assert report["results"]["retainedSize"] == 1


def test_transversal_check(capsys, tmp_path):
    path = family_file(tmp_path, FULL4)
    code, report, _ = run_report(capsys, ["transversal-check", path, "--j", "1"])
    assert code == 0
    assert report["results"] == {"brute": 24, "formula": [24, 1], "equal": True}

    code, out, err = run(capsys, ["transversal-check", path, "--j", "3"])
    assert code == 5
    assert "must lie in" in err


def test_basesets_whole_family(capsys, tmp_path):
    fam_path = family_file(tmp_path, IMMEDIATE)
    cfg_path = constants_file(tmp_path, CONSTANTS)
    trace_path = tmp_path / "trace.jsonl"
    code, report, _ = run_report(
        capsys, ["basesets", fam_path, "--mprime", "2",
                 "--constants", cfg_path, "--trace", str(trace_path)])
    assert code == 0
    results = report["results"]
    assert results["r"] == 2
    assert results["extractions"] == 4
    assert results["parts"][0] == {"B": [0, 2], "Xprime": [0, 1],
                                   "size": 1, "variant": "ii"}
    assert len(results["parts"]) == 4
    jsonschema.validate(results["baseSets"], FAMILY_SCHEMA)
    jsonschema.validate(results["family"], FAMILY_SCHEMA)
    rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert len(rows) == 4
    for row in rows:
        jsonschema.validate(row, TRACE_ROW_SCHEMA)
    assert rows[0] == {"p": 1, "r": 2, "B": [0, 2], "Xprime": [0, 1],
                       "sizeT": 1, "cumulative": 1}


def test_basesets_with_derived_components(capsys, tmp_path):
    fam_path = family_file(tmp_path, IMMEDIATE)
    cfg_path = constants_file(tmp_path, CONSTANTS)
    anchors_path = family_file(tmp_path, SetFamily.of(4, [[0], [1]]),
                               name="anchors.txt")
    code, report, _ = run_report(
        capsys, ["basesets", fam_path, "--mprime", "1",
                 "--constants", cfg_path, "--g-family", anchors_path])
    assert code == 0
    results = report["results"]
    assert results["r"] == 1
    assert results["parts"] == [
        {"B": [0], "Xprime": [0], "size": 2, "variant": "ii"},
        {"B": [1], "Xprime": [0], "size": 2, "variant": "ii"},
    ]
    assert results["baseSets"] == {"n": 4, "m": 1, "sets": [[0], [1]]}


def test_basesets_requires_anchor_family_below_m(capsys, tmp_path):
    fam_path = family_file(tmp_path, IMMEDIATE)
    cfg_path = constants_file(tmp_path, CONSTANTS)
    code, out, err = run(
        capsys, ["basesets", fam_path, "--mprime", "1", "--constants", cfg_path])
    assert code == 5
    assert "--g-family is required" in err


def test_basesets_rejects_rank_above_m(capsys, tmp_path):
    # with or without an anchor family, m' = 3 > m = 2 is a rank error
    fam_path = family_file(tmp_path, IMMEDIATE)
    cfg_path = constants_file(tmp_path, CONSTANTS)
    anchors_path = family_file(tmp_path, IMMEDIATE, name="anchors.txt")
    argv = ["basesets", fam_path, "--mprime", "3", "--constants", cfg_path]
    for extra in ([], ["--g-family", anchors_path]):
        code, out, err = run(capsys, argv + extra)
        assert (code, out) == (5, "")
        assert err == "error: rank 3 out of range [1, 2]\n"


def test_process_r_fills_family_size(capsys, tmp_path):
    fam_path = family_file(tmp_path, IMMEDIATE)
    cfg = dict(CONSTANTS)
    del cfg["famSize"]
    cfg_path = constants_file(tmp_path, cfg)
    trace_path = tmp_path / "trace.jsonl"
    code, report, _ = run_report(
        capsys, ["process-r", fam_path, "--constants", cfg_path,
                 "--trace", str(trace_path)])
    assert code == 0
    results = report["results"]
    assert results["pHat"] == 1
    assert results["rHat"] == 2
    assert results["steps"] == [{"p": 1, "rIn": 2, "rOut": 2, "extracted": 4}]
    jsonschema.validate(results["basesHat"], FAMILY_SCHEMA)
    jsonschema.validate(results["familyHat"], FAMILY_SCHEMA)
    audit = results["audit"]
    assert audit["all_sandwich_ok"] is True
    assert set(audit) == {
        "p_hat", "r_hat", "parts", "consistency", "chain",
        "spread_hypothesis_level", "spread_hypothesis_holds",
        "m_hypothesis_holds", "all_sandwich_ok",
    }
    assert len(trace_path.read_text().splitlines()) == 4


@pytest.mark.parametrize("fam_size", [None, 4], ids=["unset", "set"])
@pytest.mark.parametrize("argv", [["process-r"], ["basesets", "--mprime", "2"]],
                         ids=["process-r", "basesets"])
def test_engine_commands_reject_an_empty_family(capsys, tmp_path, argv,
                                                fam_size):
    # the empty family is named, not the famSize it would have filled
    fam_path = family_file(tmp_path, SetFamily.of(4, []))
    cfg_path = constants_file(tmp_path, dict(CONSTANTS, famSize=fam_size))
    code, out, err = run(capsys, [argv[0], fam_path, *argv[1:],
                                  "--constants", cfg_path])
    assert (code, out) == (5, "")
    assert err == "error: family must be nonempty\n"


def test_process_r_rejects_c_not_above_h_before_the_engine(
        capsys, tmp_path, monkeypatch):
    def engine(*args):
        raise AssertionError("the engine ran on constants the audit rejects")

    monkeypatch.setattr(basesets, "process_r", engine)
    fam_path = family_file(tmp_path, IMMEDIATE)
    cfg_path = constants_file(tmp_path, dict(CONSTANTS, h=2.0, c=1.5))
    code, out, err = run(capsys, ["process-r", fam_path,
                                  "--constants", cfg_path])
    assert (code, out) == (5, "")
    assert err == "error: the audit requires c > h > 1\n"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("c", [142.98, 143.0, 143.04])
def test_process_r_audit_reports_a_level_past_floats_as_null(capsys,
                                                             tmp_path, c):
    # c^c fits a float below c = 143.04 but c^c * k * ln k does not; at
    # 143.04 c^c overflows too.  Either way the level is null, which JSON
    # can carry where Infinity is not JSON, and it decides nothing
    split = Split.contiguous(12, 3)
    fam_path = family_file(
        tmp_path, generate_random_family(12, 3, 40, 1, on_split=split))
    cfg_path = constants_file(tmp_path, {"epsilon": 0.995, "h": 1.0005,
                                         "c": c, "k": 2, "m": 3})
    code, out, _ = run(capsys, ["process-r", fam_path,
                                "--constants", cfg_path])
    assert code == 0
    audit = json.loads(out, parse_constant=_reject_constant)["results"][
        "audit"]
    assert audit["spread_hypothesis_level"] is None
    assert audit["spread_hypothesis_holds"] is None
    assert audit["m_hypothesis_holds"] is False


def wide_family(hub: bool) -> SetFamily:
    """600 on-split 13-sets over the contiguous 13-split of 780 labels,
    whose sum(2**|U|) = 600 * 2**13 is over DEFAULT_SHADOW_BUDGET: member
    i takes label (i + j * (i // 60)) % 60 of strip j, so every label
    lies in 10 members; with ``hub`` every member takes label 0 of strip
    0 instead, which lies in all 600."""
    return SetFamily.of(780, [
        [0] * hub + [60 * j + (i + (j - hub) * (i // 60)) % 60
                     for j in range(hub, 13)]
        for i in range(600)])


def crowded_family() -> SetFamily:
    """``wide_family(False)`` with members 1..19 (member i < 60 takes
    label i of every strip) moved to label 0 on strip 0: label 0 lies in
    29 members, every other label in at most 10."""
    return SetFamily.of(780, [
        [0 if i < 20 and j == 0 else 60 * j + (i + j * (i // 60)) % 60
         for j in range(13)]
        for i in range(600)])


@pytest.mark.parametrize("case", ["spread", "hub", "crowded"])
def test_process_r_audits_a_family_over_the_shadow_budget(capsys, tmp_path,
                                                          case):
    # need[13] is 1, so step 1 takes every member alone at rank 13.  The
    # audit's level is b = 1.3876..., and no restriction is counted, as
    # counting them exceeds the shadow budget.  With degree 10 the degree
    # bound proves b-spreadness (10 * b^12 < 600 and b^13 < 600).  With
    # the hub, D = |F| = 600 refutes it (600 * b >= 600).  With label 0
    # in 29 members neither decides (29 * b^12 >= 600 > 29 * b, and
    # b^13 < 600), so the count runs out of budget and the hypothesis is
    # reported as unknown, not as an exit 4 after the engine has run
    family = crowded_family() if case == "crowded" else wide_family(
        case == "hub")
    degrees = {"spread": [10, 10, 10], "hub": [600, 0, 10],
               "crowded": [29, 9, 10]}[case]
    assert [len(family.restrict(GroundSet(family.universe, 1 << x)))
            for x in (0, 1, 60)] == degrees
    fam_path = family_file(tmp_path, family)
    cfg_path = constants_file(tmp_path, {"epsilon": 0.995, "h": 1.0005,
                                         "c": 1.001, "k": 2, "m": 13})
    code, out, err = run(capsys, ["process-r", fam_path,
                                  "--constants", cfg_path])
    report = json.loads(out)
    results = report["results"]
    assert code == 0 and results["rHat"] == 13
    assert results["steps"] == [{"p": 1, "rIn": 13, "rOut": 13,
                                 "extracted": 600}]
    holds = {"spread": True, "hub": False, "crowded": None}[case]
    assert results["audit"]["spread_hypothesis_holds"] is holds
    # only the unknown verdict says what ran out: 600 * 2^13 subsets
    assert results["audit"].get("spread_hypothesis_budget") == (
        {"needed": 4915200, "budget": 4194304} if holds is None else None)
    assert results["audit"]["all_sandwich_ok"] is True
    if not holds:
        assert [line["hypothesis"] for line in results["audit"]["chain"]][
            :2] == ["unmet", "unmet"]


def test_budget_env_override(capsys, tmp_path, monkeypatch):
    # the extremal 5-sunflower-free family of 64 3-sets: its link table
    # (512 entries) fits the budget, but proving absence takes 720 nodes
    path = family_file(tmp_path, build_extremal(5, 3))
    monkeypatch.setenv("SUNFLOWER_BUDGET", "512")
    code, out, err = run(capsys, ["find-sunflower", path, "--k", "5"])
    assert code == 4
    assert "exceeded 512 nodes" in err


@pytest.mark.parametrize("option", [["--k", "2"], ["--k", "2", "--gamma", "9"]])
def test_budget_env_caps_find_sunflower_shadow(capsys, tmp_path, monkeypatch,
                                               option):
    # 20 3-sets: 160 entries in the link table of the exact search and in
    # the subset map of the gamma mode's spreadness check, as in check-gamma
    path = family_file(tmp_path, generate_random_family(9, 3, 20, seed=4))
    monkeypatch.setenv("SUNFLOWER_BUDGET", "40")
    for argv in (["find-sunflower", path, *option],
                 ["check-gamma", path, "--b", "9"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (4, "")
        assert err == "error: shadow would generate 160 subsets (budget 40)\n"


@pytest.mark.parametrize("value", ["-5", "0", "1.5", "many"])
def test_bad_budget_env_exits_five(capsys, tmp_path, monkeypatch, value):
    # an input error, not a search that ran out of nodes
    path = family_file(tmp_path, FULL4)
    monkeypatch.setenv("SUNFLOWER_BUDGET", value)
    code, out, err = run(capsys, ["find-sunflower", path, "--k", "3"])
    assert (code, out) == (5, "")
    assert err == ("error: SUNFLOWER_BUDGET must be a positive integer, "
                   f"got {value!r}\n")


@pytest.mark.parametrize("command, option, base", [
    ("check-gamma", [], "1/0"),
    ("find-sunflower", ["--k", "2"], "3/0"),
])
def test_zero_denominator_base_exits_five(capsys, tmp_path, command, option,
                                          base):
    path = family_file(tmp_path, FULL4)
    flag = "--b" if command == "check-gamma" else "--gamma"
    code, out, err = run(capsys, [command, path, *option, flag, base])
    assert (code, out) == (5, "")
    assert err == f"error: base {base!r} has a zero denominator\n"


@pytest.mark.parametrize("command, option, base, shown", [
    ("check-gamma", [], "1", "1"),
    ("check-gamma", [], "0.75", "3/4"),
    ("find-sunflower", ["--k", "2"], "1", "1"),
    ("find-sunflower", ["--k", "2"], "3/4", "3/4"),
])
def test_base_at_most_one_exits_five_naming_its_value(capsys, tmp_path,
                                                       command, option, base,
                                                       shown):
    path = family_file(tmp_path, FULL4)
    flag = "--b" if command == "check-gamma" else "--gamma"
    code, out, err = run(capsys, [command, path, *option, flag, base])
    assert (code, out) == (5, "")
    assert err == f"error: spreadness base must exceed 1, got {shown}\n"


def test_input_errors_exit_five(capsys, tmp_path):
    code, out, err = run(capsys, ["check-gamma", str(tmp_path / "nope.txt"),
                                  "--b", "2"])
    assert code == 5 and "No such file" in err

    garbage = tmp_path / "garbage.txt"
    garbage.write_text("universe x maxcard y\nzzz\n")
    code, out, err = run(capsys, ["check-gamma", str(garbage), "--b", "2"])
    assert code == 5

    fam_path = family_file(tmp_path, IMMEDIATE)
    bad_cfg = constants_file(tmp_path, {"epsilon": 2.0, "h": 1.2, "c": 1.5,
                                        "k": 2, "m": 2}, name="bad.json")
    code, out, err = run(capsys, ["process-r", fam_path,
                                  "--constants", bad_cfg])
    assert code == 5 and "epsilon" in err

    # malformed family JSON: wrong types are input errors, not tracebacks
    for i, bad in enumerate([{"n": "5", "m": 2, "sets": [[0, 1]]},
                             {"n": 5, "m": 2, "sets": [[0.5, 1]]},
                             {"n": 5, "m": 2, "sets": [["a", 1]]},
                             {"n": 5, "m": 2, "sets": 7},
                             {"n": 5, "m": 2, "sets": [[True, 1]]}]):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, ["check-gamma", str(path), "--b", "2"])
        assert code == 5, bad
        assert err.startswith("error: bad family object")
        assert "Traceback" not in err

    # constants of the wrong JSON type, or not an object at all
    for i, bad in enumerate([dict(CONSTANTS, k=2.9),
                             dict(CONSTANTS, famSize=40.7),
                             dict(CONSTANTS, m=True),
                             dict(CONSTANTS, c=float("inf")), [1, 2]]):
        cfg_path = constants_file(tmp_path, bad, name=f"badcfg{i}.json")
        code, out, err = run(capsys, ["process-r", fam_path,
                                      "--constants", cfg_path])
        assert (code, out) == (5, ""), bad
        assert err.startswith("error: bad constants object: "), bad
        assert "Traceback" not in err

    # a negative family size
    code, out, err = run(capsys, ["gen-random", "--n", "6", "--m", "2",
                                  "--size", "-3"])
    assert (code, out) == (5, "")
    assert err.startswith("error: ")

    # a random split search of no trials
    for trials in ("0", "-5"):
        code, out, err = run(capsys, ["split", fam_path, "--mode", "random",
                                      "--trials", trials])
        assert (code, out) == (5, ""), trials
        assert err == "error: trials must be at least 1\n"


def test_gamma_precondition_exits_five(capsys, tmp_path):
    # element 0 lies in 3 of the 6 members, so FULL4 is not 2-spread
    path = family_file(tmp_path, FULL4)
    code, out, err = run(capsys,
                         ["find-sunflower", path, "--k", "2", "--gamma", "2"])
    assert (code, out) == (5, "")
    assert err.splitlines() == ["error: family is not 2-spread: witness {0}"]


# One defect each, and the one error line it gives.  The parsers check
# each row as they read it and duplicates once every row is read, so of
# several defects the first bad label is named, then a duplicate.
MALFORMED_FAMILIES = [
    ("universe 4 maxcard 2\n0 1\n-2 3\n",
     "label -2 outside universe of size 4"),
    ("universe 4 maxcard 2\n0 1\n0 9\n", "label 9 outside universe of size 4"),
    ("universe 4 maxcard 2\n0 1\n0 x\n",
     "invalid literal for int() with base 10: 'x'"),
    ("universe 4 max 2\n0 1\n", "bad header line: 'universe 4 max 2'"),
    ("universe 4 maxcard 2\n0 1\n1 0\n", "duplicate member {0,1}"),
    ("universe 4 maxcard -1\n", "cardinality bound must be nonnegative, got -1"),
    ("universe 4 maxcard 2\n0 9\n0 x\n", "label 9 outside universe of size 4"),
    ("universe 4 maxcard 2\n0 1\n1 0\n3 7\n",
     "label 7 outside universe of size 4"),
    ({"n": 4, "m": 2, "sets": [[0, 1], [-2, 3]]},
     "label -2 outside universe of size 4"),
    ({"n": 4, "m": 2, "sets": [[0, 1], [0, 9]]},
     "label 9 outside universe of size 4"),
    ({"n": 4, "m": 2, "sets": [[0, 1], [1, 0]]}, "duplicate member {0,1}"),
    ({"n": 4, "m": -3, "sets": []},
     "cardinality bound must be nonnegative, got -3"),
    ("{not json", "Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
]


@pytest.mark.parametrize("source, message", MALFORMED_FAMILIES)
def test_malformed_families_exit_five(capsys, tmp_path, source, message):
    path = tmp_path / "bad.txt"
    path.write_text(source if isinstance(source, str) else json.dumps(source))
    # a text that opens like JSON but does not parse names its file
    if source == "{not json":
        message = f"{path}: {message}"
    for argv in (["check-gamma", str(path), "--b", "2"],
                 ["find-sunflower", str(path), "--k", "2"]):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (5, "", f"error: {message}\n"), argv


def test_invalid_json_names_its_file(capsys, tmp_path):
    # with a family and a constants file, the error says which is broken
    fam = family_file(tmp_path, IMMEDIATE)
    cfg = constants_file(tmp_path, CONSTANTS)
    bad_fam, bad_cfg = tmp_path / "fam.json", tmp_path / "cfg.json"
    bad_fam.write_text("{not json")
    bad_cfg.write_text("{not json")
    decoder = ("Expecting property name enclosed in double quotes: "
               "line 1 column 2 (char 1)")
    for argv, bad in ((["process-r", str(bad_fam), "--constants", cfg],
                       bad_fam),
                      (["process-r", fam, "--constants", str(bad_cfg)],
                       bad_cfg),
                      (["find-sunflower", str(bad_fam), "--k", "2"], bad_fam)):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (5, "", f"error: {bad}: {decoder}\n"), argv


def test_read_only_commands_build_few_ground_sets(capsys, tmp_path,
                                                  monkeypatch):
    # the family keeps int masks; GroundSets are built only for output
    path = family_file(tmp_path, SetFamily.of(9, combinations(range(9), 3)))
    built = [0]
    init = GroundSet.__init__

    def counting_init(self, universe, bits):
        built[0] += 1
        init(self, universe, bits)

    monkeypatch.setattr(GroundSet, "__init__", counting_init)
    code, report, _ = run_report(capsys, ["check-gamma", path, "--b", "2"])
    assert code == 0 and report["results"]["holds"] is True
    assert built[0] == 0
    code, report, _ = run_report(capsys, ["find-sunflower", path, "--k", "3"])
    assert code == 0 and report["results"]["found"] is True
    assert built[0] <= 3 + 1
    # splits and engine parts keep masks too: no GroundSet at all
    split = Split.contiguous(12, 3)
    on_split = family_file(tmp_path, generate_random_family(
        12, 3, 40, seed=11, on_split=split), name="on_split.txt")
    cfg_path = constants_file(tmp_path, {"epsilon": 0.995, "h": 1.0005,
                                         "c": 1.001, "k": 2, "m": 3})
    for argv in (["split", path], ["split", path, "--mode", "random"],
                 ["transversal-check", path, "--j", "2"],
                 ["process-r", on_split, "--constants", cfg_path]):
        built[0] = 0
        code, report, _ = run_report(capsys, argv)
        assert code == 0, argv
        assert built[0] == 0, argv


def test_commands_query_the_shadow_through_member_columns_only(
        capsys, tmp_path, monkeypatch):
    # every shadow query ANDs the member columns its range family keeps,
    # so no command builds a per-subset map: each family's columns are
    # keyed by single labels and built at most once.  The collection
    # check of basesets --g-family queries the family's shadow, the
    # process-r audit reads the input family's columns, and on the m = 5
    # sweep input step 1's counted cleanings query the shadow of the
    # input family itself, their bases, as later steps query theirs
    built = []
    real_columns = families._columns

    def columns(masks):
        cols = real_columns(masks)
        built.append((masks, cols))
        return cols

    monkeypatch.setattr(families, "_columns", columns)
    path = family_file(tmp_path, SetFamily.of(9, combinations(range(9), 3)))
    small = generate_random_family(12, 3, 40, seed=11,
                                   on_split=Split.contiguous(12, 3))
    on_split = family_file(tmp_path, small, name="on_split.txt")
    cfg_path = constants_file(tmp_path, {"epsilon": 0.995, "h": 1.0005,
                                         "c": 1.001, "k": 2, "m": 3})
    immediate = family_file(tmp_path, IMMEDIATE, name="immediate.txt")
    anchors = family_file(tmp_path, SetFamily.of(4, [[0], [1]]),
                          name="anchors.txt")
    small_cfg = constants_file(tmp_path, CONSTANTS, name="small.json")
    for argv in (["check-gamma", path, "--b", "2"],
                 ["find-sunflower", path, "--k", "3"],
                 ["find-sunflower", path, "--k", "2", "--gamma", "2"],
                 ["split", path], ["split", path, "--mode", "random"],
                 ["basesets", immediate, "--mprime", "1",
                  "--constants", small_cfg, "--g-family", anchors],
                 ["process-r", on_split, "--constants", cfg_path]):
        code, _, err = run(capsys, argv)
        assert code == 0, (argv, err)
    # the collection check's family and the process-r audit's
    assert [masks for masks, _ in built] == [IMMEDIATE._mask_set,
                                             small._mask_set]
    sweep_split = Split.contiguous(40, 5)
    sweep = generate_random_family(40, 5, 1000, 1, on_split=sweep_split)
    sweep_path = family_file(tmp_path, sweep, name="sweep.txt")
    sweep_cfg = constants_file(tmp_path, {"epsilon": 0.995, "h": 1.0005,
                                          "c": 1.001, "k": 2, "m": 5},
                               name="sweep.json")
    code, out, err = run(capsys, ["process-r", sweep_path,
                                  "--constants", sweep_cfg])
    assert (code, out) == (1, "")
    assert err.startswith("error: no rank produced the guaranteed")
    # step 1's bases, the input family, then the 58 bases of step 2
    assert built[2][0] == sweep._mask_set
    assert [len(masks) for masks, _ in built[2:]] == [1000, 58]
    for masks, cols in built:
        assert set(cols) == {1 << x for u in masks for x in mask_labels(u)}


def _violate(*args, **kwargs):
    raise ContractViolationError("kernel disagrees with its cross-check")


def test_split_contract_violation_exits_one(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(splits, "find_good_split", _violate)
    path = family_file(tmp_path, FULL4)
    code, out, err = run(capsys, ["split", path])
    assert code == 1
    assert "error: kernel disagrees with its cross-check" in err.splitlines()
    assert "Traceback" not in err


def test_engine_contract_violation_writes_trace_and_exits_one(
        capsys, tmp_path, monkeypatch):
    # the engine commands write the partial trace, then fail like any
    # other command: exit 1 and one error line
    row = {"p": 1, "r": 0, "B": [], "Xprime": [0, 1], "sizeT": 2,
           "cumulative": 2}

    def violate(*args, **kwargs):
        raise ContractViolationError("no rank reached its bound", trace=[row])

    monkeypatch.setattr(basesets, "process_r", violate)
    monkeypatch.setattr(basesets, "base_sets", violate)
    fam_path = family_file(tmp_path, IMMEDIATE)
    cfg_path = constants_file(tmp_path, CONSTANTS)
    trace = tmp_path / "trace.jsonl"
    for argv in (["process-r", fam_path], ["basesets", fam_path,
                                            "--mprime", "2"]):
        trace.unlink(missing_ok=True)
        code, out, err = run(capsys, argv + ["--constants", cfg_path,
                                             "--trace", str(trace)])
        assert (code, out) == (1, ""), argv
        assert err.splitlines() == ["error: no rank reached its bound"]
        assert [json.loads(line)
                for line in trace.read_text().splitlines()] == [row]


def test_later_step_failure_writes_the_completed_steps_trace(capsys,
                                                              tmp_path):
    # at m = 5 under the bench constants the driver's step 1 takes 58
    # parts in 83 extractions and step 2 takes none, so no rank reaches
    # its bound: the trace file holds step 1's rows, then step 2's
    family = generate_random_family(40, 5, 1000, 1,
                                    on_split=Split.contiguous(40, 5))
    cfg = {"epsilon": 0.995, "h": 1.0005, "c": 1.001, "k": 2, "m": 5}
    step1 = basesets.base_sets(
        basesets.ComponentCollection.initial(family, Split.contiguous(40, 5)),
        basesets.constants_from_dict(cfg).with_fam_size(1000))
    assert len(step1.trace) == 83 and step1.r == 3
    trace = tmp_path / "trace.jsonl"
    code, out, err = run(capsys, ["process-r", family_file(tmp_path, family),
                                  "--constants", constants_file(tmp_path, cfg),
                                  "--trace", str(trace)])
    assert (code, out) == (1, "")
    assert err.startswith("error: no rank produced the guaranteed retained")
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert rows[:83] == [json.loads(json.dumps(row, sort_keys=True))
                         for row in step1.trace]
    assert all(row["p"] == 2 for row in rows[83:])


def test_gamma_contract_violation_exits_one(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(sunflowers, "extract_disjoint_via_gamma", _violate)
    path = family_file(tmp_path, SetFamily.of(10, [[i] for i in range(10)]))
    code, out, err = run(capsys,
                         ["find-sunflower", path, "--k", "3", "--gamma", "3"])
    assert code == 1
    assert "error: kernel disagrees with its cross-check" in err.splitlines()
    assert "Traceback" not in err


def test_main_reuses_one_parser_without_leaking_state(capsys, tmp_path):
    # every main() call in a process shares one parser; a run of calls in a
    # row, usage errors included, must print what separate calls print
    from sunflower import cli
    path = family_file(tmp_path, FULL4)
    calls = [["split", path, "--mode", "random", "--trials", "5",
              "--seed", "3"],
             ["split", path],
             ["split", path, "--mode", "sideways"],
             ["check-gamma", path, "--b", "2"],
             ["transversal-check", path],
             ["transversal-check", path, "--j", "1"],
             ["split", path, "--pad-to", "6"]]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        if code != 0:
            return code, captured.err
        report = json.loads(captured.out)
        del report["timings"]
        return code, report

    in_a_row = [outcome(argv) for argv in calls]
    separate = []
    for argv in calls:
        cli._shared_parser.cache_clear()
        separate.append(outcome(argv))
    assert in_a_row == separate
    assert [code for code, _ in in_a_row] == [0, 0, 2, 0, 2, 0, 0]
    # the random call's options do not leak into the plain split after it
    plain = in_a_row[1][1]
    assert plain["inputs"]["mode"] == "exhaustive"
    assert plain["inputs"]["trials"] == 1000
    assert plain["seed"] == 0
    assert plain["inputs"]["n"] == 4


def test_parse_errors_exit_two(capsys, tmp_path):
    path = family_file(tmp_path, FULL4)
    for argv in [[], ["no-such-command"], ["split"],
                 ["split", path, "--trials", "many"],
                 ["check-gamma", path]]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: sunflower" in capsys.readouterr().err
    # and a good call after them still works
    code, report, _ = run_report(capsys, ["split", path])
    assert code == 0 and report["results"]["retainedSize"] == 4


TIMINGS_MARK = ',\n  "timings": '


def report_calls(tmp_path):
    """One call of every subcommand that prints a report envelope."""
    fam = family_file(tmp_path, FULL4)
    imm = family_file(tmp_path, IMMEDIATE, name="immediate.txt")
    cfg = constants_file(tmp_path, CONSTANTS)
    return [["find-sunflower", fam, "--k", "3"],
            ["find-sunflower", fam, "--k", "2", "--gamma", "2", "--core", "0"],
            ["check-gamma", fam, "--b", "2"],
            ["split", fam, "--seed", "3"],
            ["transversal-check", fam, "--j", "1"],
            ["basesets", imm, "--mprime", "2", "--constants", cfg],
            ["process-r", imm, "--constants", cfg]]


def test_reports_print_one_line_per_top_level_key(capsys, tmp_path):
    for argv in report_calls(tmp_path):
        _, out, _ = run(capsys, argv)
        report = json.loads(out)
        lines = out.splitlines()
        assert out.endswith("\n}\n"), argv
        assert lines[0] == "{" and lines[-1] == "}", argv
        assert len(lines) == len(report) + 2, argv
        for key, line in zip(sorted(report), lines[1:-1]):
            prefix = f"  {json.dumps(key)}: "
            assert line.startswith(prefix), (argv, line)
            value = line[len(prefix):].removesuffix(",")
            assert json.loads(value) == report[key], (argv, key)
            # nested keys sorted too, byte for byte
            assert value == json.dumps(report[key], sort_keys=True), (
                argv, key)
        # main derives the command and the seed from the parsed arguments
        assert report["command"] == argv[0]
        seed = (int(argv[argv.index("--seed") + 1]) if "--seed" in argv
                else None)
        assert report["seed"] == seed, argv


def test_reports_parse_as_the_indented_printer_did(capsys, tmp_path,
                                                   monkeypatch):
    def parsed(argv):
        code, out, _ = run(capsys, argv)
        report = json.loads(out)
        del report["timings"]
        return code, report

    calls = report_calls(tmp_path)
    compact = [parsed(argv) for argv in calls]
    monkeypatch.setattr(cli, "_print_report", lambda report: print(
        json.dumps(report, sort_keys=True, indent=2)))
    indented = [parsed(argv) for argv in calls]
    assert compact == indented


def test_timings_line_is_cut_by_its_marker(capsys, tmp_path):
    # the first "}" after the marker closes the timings object, so cutting
    # from the marker through it leaves the report without its timings
    for argv in report_calls(tmp_path):
        _, out, _ = run(capsys, argv)
        cut = out.find(TIMINGS_MARK)
        assert cut > 0, argv
        end = out.find("}", cut)
        report = json.loads(out)
        timings = report.pop("timings")
        assert json.loads(out[cut + len(TIMINGS_MARK):end + 1]) == timings
        assert json.loads(out[:cut] + out[end + 1:]) == report, argv
