"""Mutant gate for the fast paths: each listed mutant breaks one shortcut
beside its oracle, and the test suite must fail on it.

Run from anywhere, with the tier-1 test dependencies installed:

    python tests/mutants.py           # every listed mutant
    python tests/mutants.py NAME ...  # only the named ones

An entry gives the file, the exact old text, the new text and the fast
path it breaks.  Every old text, equivalent entries' included, must occur
exactly once in its file, so a refactor that moves one must update the
list.  The runner copies ``src/``, ``tests/``, ``README.md`` and
``pyproject.toml`` to a temporary directory, runs ``pytest -x`` there
once unmutated (it must pass, or no kill means anything), then once per
mutant on a fresh copy.  Every test file runs, in the order of
:func:`ordered_test_files`: the contract and spy tests first, so a
mutant whose only cost is time fails a test before the engine corpus
and the hypothesis properties, which run last, can time it out.  A
mutant is killed when pytest reports a failed test (exit 1); it
survives when the suite passes.  A run stopped at three times the
unmutated run is a hang, and a finding: every fast path must be backed
by a test that fails, not by a suite that never ends.  The runner exits
1 if any mutant survives or hangs, an old text is not found exactly
once, or pytest ends any other way.  Equivalent mutants are listed with
their reason and never run.  The file name keeps pytest from collecting
it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    breaks: str


class Equivalent(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    reason: str


BASESETS = "src/sunflower/basesets.py"
CLI = "src/sunflower/cli.py"
FAMILIES = "src/sunflower/families.py"
GAMMA = "src/sunflower/gamma.py"
SPLITS = "src/sunflower/splits.py"
SUNFLOWERS = "src/sunflower/sunflowers.py"

# test files run before and after the others, which run in name order
FIRST = ("test_families.py", "test_basesets.py", "test_cli.py",
         "test_readme.py", "test_package.py")
LAST = ("test_acceptance.py", "test_properties.py")

MUTANTS = (
    # the drain's exact rules
    Mutant("rule-1-tie", BASESETS,
           "if n * q <= p:   # rule 1", "if n * q < p:   # rule 1",
           "rule 1 empties a live bucket of exactly b members"),
    Mutant("rule-2-tie", BASESETS,
           "if n * qf <= pf:", "if n * qf < pf:",
           "rule 2 empties disjoint traces at |t| = b^f"),
    Mutant("rule-2-disjoint", BASESETS,
           "if n * f == traces.bit_count():",
           "if n * f >= traces.bit_count():",
           "rule 2 applies only to pairwise disjoint traces"),
    Mutant("candidate-floor", BASESETS,
           "max(floor, p // q + 1)", "max(floor, p // q + 2)",
           "the drain's candidates are the buckets above b"),
    # the drain's buckets as projection groups, the audit's counts as
    # member-column ANDs
    Mutant("projection-candidates-strict", BASESETS,
           "if len(t) >= need}", "if len(t) > need}",
           "a projection group that reaches the drain's floor is a "
           "candidate"),
    Mutant("projection-strips-one-short", BASESETS,
           "combinations(sub.strip_masks, r)",
           "combinations(sub.strip_masks, r - 1)",
           "a rank-r base is a projection onto r of the component's strips"),
    Mutant("audit-fold-skips-a-label", BASESETS,
           "_holders(cols, everyone, bits)",
           "_holders(cols, everyone, bits & bits - 1)",
           "the audit's |F[C]| ANDs the column of every label of C"),
    # the violator search over the size-grouped trace counts
    Mutant("violator-strict", GAMMA,
           "if count >= floor]", "if count > floor]",
           "a violator meets |F[S]| * b^|S| >= |F|, ties included"),
    Mutant("violator-ascending", GAMMA,
           "for size in sorted(counts, reverse=True):",
           "for size in sorted(counts):",
           "the violator is of the largest size that has one"),
    Mutant("violator-max-key", GAMMA,
           "return min(hits, key=_canonical_key)",
           "return max(hits, key=_canonical_key)",
           "the violator is the least label tuple of its size"),
    Mutant("violator-first-hit", GAMMA,
           "return min(hits, key=_canonical_key)", "return hits[0]",
           "the violator is the least label tuple of its size, whatever "
           "order the count map holds"),
    # shadow membership as a nonzero AND of the kept member columns
    Mutant("in-shadow-drops-last-member", FAMILIES,
           "_holders(_kept_columns(family), (1 << len(family)) - 1, s)",
           "_holders(_kept_columns(family), (1 << len(family) - 1) - 1, s)",
           "a shadow query starts from every member, the last included"),
    Mutant("in-shadow-skips-a-label", FAMILIES,
           "_holders(_kept_columns(family), (1 << len(family)) - 1, s)",
           "_holders(_kept_columns(family), (1 << len(family)) - 1, "
           "s & s - 1)",
           "a shadow query ANDs the column of every label of s"),
    Mutant("cleaning-no-decrement", BASESETS,
           "_tally_traces(counts, [u for u in t if u & v == v], free, -1)",
           "pass",
           "the cleaning takes a dropped member's traces off its counts"),
    Mutant("trace-budget-tie", FAMILIES,
           "if need > budget:", "if need >= budget:",
           "the count map raises only past its budget (the check "
           "_carried_counts shares with _subset_counts)"),
    # the largest member size, decided from its members with no count map
    Mutant("top-size-exponent", GAMMA,
           "top = len(by_size) + 1", "top = len(by_size)",
           "size T is one past the counted sizes 1, .., T - 1"),
    Mutant("top-size-never-ties", GAMMA,
           "if lhs < rhs or lhs == rhs and report.holds:",
           "if lhs <= rhs:",
           "the T-members join a failing maximum they tie"),
    Mutant("top-size-wins-ties", GAMMA,
           "tied.append(report.witness.bits)", "pass",
           "a smaller size's witness stays a candidate when T ties it"),
    Mutant("top-size-for-the-empty-member", GAMMA,
           "if masks == {0}:", "if False:",
           "a family whose only member is empty has no size T"),
    Mutant("subset-counts-count-the-top", FAMILIES,
           "last = t if t < top else t - 1", "last = t",
           "the count map stops below the largest member size"),
    # earlier shortcuts
    Mutant("degree-bound-tie", GAMMA,
           "if degree * p ** (top - 1) < size * q ** (top - 1):",
           "if degree * p ** (top - 1) <= size * q ** (top - 1):",
           "the degree bound proves spreadness only strictly below |F|"),
    Mutant("full-rank-skips-at-floor-one", BASESETS,
           "if full and floor > 1:", "if full:",
           "a full-rank key is grouped at a floor of 1"),
    Mutant("drain-forgets-passed", BASESETS,
           "passed[bm] = i", "pass",
           "a take re-queues the passed bases it shrinks"),
    Mutant("greedy-walks-labels-down", SUNFLOWERS,
           "for low in sorted(buckets):",
           "for low in sorted(buckets, reverse=True):",
           "the gamma greedy walks the lowest labels upward"),
    Mutant("split-stack-keeps-labels", SPLITS,
           "free ^= strips.pop()", "strips.pop()",
           "a closed strip's labels are free again for the next block"),
    Mutant("transversal-no-factorial", SPLITS,
           "return factorial(j) * _transversal_walk(",
           "return _transversal_walk(",
           "each set of disjoint blocks stands for its j! ordered tuples"),
    Mutant("transversal-walk-ordered", SPLITS,
           "_transversal_walk(table[i + 1:], j - 1,",
           "_transversal_walk(table, j - 1,",
           "a depth draws only from the blocks after the one it picked"),
    Mutant("columns-built-per-query", FAMILIES,
           "if family._cols is None:", "if True:",
           "a family builds its member columns once and keeps them"),
    Mutant("incidence-no-twos", SPLITS,
           "twos |= ones & c", "pass",
           "a member meeting a block twice is not counted as meeting it "
           "once"),
    Mutant("pair-pass-drops-kept-link", SUNFLOWERS,
           "row[c] = grown[c] = row[c] | low",
           "row[c] = grown[c] = low",
           "a dropped member's bit joins the link its trace kept"),
    # split search: slot-stored splits scored inline, one shared encoder
    Mutant("slot-split-skips-universe", FAMILIES,
           "        put_universe(split, universe)\n",
           "\n",
           "every split the enumerator stores carries its universe"),
    Mutant("exhaustive-score-skips-two-strips", SPLITS,
           "for b in split.strips:", "for b in split.strips[2:]:",
           "the exhaustive score ANDs the strips' bitsets"),
    Mutant("random-score-skips-two-strips", SPLITS,
           "for b in blocks:", "for b in blocks[2:]:",
           "the random score ANDs the strips' bitsets"),
    Mutant("encoder-unsorted", CLI,
           "_ENCODER = json.JSONEncoder(sort_keys=True)",
           "_ENCODER = json.JSONEncoder()",
           "the shared encoder sorts the keys at every depth"),
)

EQUIVALENT = (
    Equivalent("transversal-walk-keeps-the-pick", SPLITS,
               "_transversal_walk(table[i + 1:], j - 1,",
               "_transversal_walk(table[i:], j - 1,",
               "the picked block meets itself, so the next depth skips it "
               "as it skips every block that is not disjoint"),
    Equivalent("exhaustive-score-skips-a-strip", SPLITS,
               "for b in split.strips:", "for b in split.strips[1:]:",
               "an m-set meeting m - 1 strips of a partition once each has "
               "its last label in the remaining strip"),
    Equivalent("random-score-skips-a-strip", SPLITS,
               "for b in blocks:", "for b in blocks[1:]:",
               "an m-set meeting m - 1 strips of a partition once each has "
               "its last label in the remaining strip"),
    Equivalent("greedy-no-label-skip", SUNFLOWERS,
               "if low & used:", "if False:",
               "a bucket whose lowest label a pick holds has no member "
               "disjoint from the picks; the skip saves only the scan"),
    Equivalent("pair-pass-half-tie", "src/sunflower/sunflowers.py",
               "if 2 * len(row) > len(later):",
               "if 2 * len(row) >= len(later):",
               "at the tie both branches build the same row; only their "
               "cost differs"),
    Equivalent("full-rank-always-groups", BASESETS,
               "if full and floor > 1:", "if False:",
               "above a floor of 1 the one-member groups of a full-rank "
               "key yield nothing; only the grouping's cost differs"),
)


def check_texts(entries) -> list[str]:
    """One line per entry whose old text is not in its file exactly once."""
    bad = []
    for entry in entries:
        count = (ROOT / entry.path).read_text().count(entry.old)
        if count != 1:
            bad.append(f"{entry.name}: {entry.path} holds the old text "
                       f"{count} times")
    return bad


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache", "*.egg-info")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def ordered_test_files(tree: Path) -> list[str]:
    """Every test file of the copy: ``FIRST``, the rest in name order,
    then ``LAST``."""
    names = sorted(p.name for p in (tree / "tests").glob("test_*.py"))
    middle = [name for name in names if name not in FIRST + LAST]
    return [f"tests/{name}" for name in (*FIRST, *middle, *LAST)]


def run_suite(tree: Path, timeout: float | None) -> int | None:
    """pytest -x's exit code on the copy, or None past ``timeout``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *ordered_test_files(tree)],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def run_on_copy(mutant: Mutant | None, timeout: float | None
                ) -> tuple[int | None, float]:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if mutant is not None:
            target = tree / mutant.path
            target.write_text(target.read_text().replace(mutant.old,
                                                         mutant.new))
        start = time.perf_counter()
        code = run_suite(tree, timeout)
        return code, time.perf_counter() - start


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    bad = check_texts(MUTANTS + EQUIVALENT)
    for line in bad:
        print(line)
    if bad:
        return 1
    for eq in EQUIVALENT:
        print(f"equivalent {eq.name}: not run ({eq.reason})")

    start = time.perf_counter()
    code, clean = run_on_copy(None, None)
    print(f"unmutated: exit {code} in {clean:.1f} s", flush=True)
    if code != 0:
        print("the unmutated suite must pass")
        return 1
    failed = []
    for mutant in chosen:
        code, spent = run_on_copy(mutant, 3 * clean)
        outcome = {None: "HUNG", 1: "killed", 0: "SURVIVED"}.get(
            code, f"ERROR (pytest exit {code})")
        print(f"{mutant.name}: {outcome} in {spent:.1f} s  "
              f"[{mutant.path}: {mutant.breaks}]", flush=True)
        if code != 1:
            failed.append(mutant.name)
    print(f"{len(chosen) - len(failed)}/{len(chosen)} killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
