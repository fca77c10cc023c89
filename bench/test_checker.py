"""Self-test of the benchmark's verdict checker and tracer.

Real CLI sessions must pass the checker, and each injected fault must be
rejected and counted as a failed session, so the checker cannot pass
vacuously.  Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checker  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import sunflower  # noqa: E402
from sunflower import cli  # noqa: E402


def _session(name: str, tmp_path, index: int = 0):
    workload = WORKLOADS[name]
    entry = workload.make(7, str(tmp_path))[index]
    calls = run.run_session(cli, entry)
    return workload, entry, calls


def _with_report(calls, i: int, edit):
    """Copy of ``calls`` with report ``i`` parsed, edited and re-serialized."""
    code, text = calls[i]
    report = json.loads(text)
    edit(report)
    out = list(calls)
    out[i] = (code, json.dumps(report, sort_keys=True, indent=2))
    return out


def test_real_sessions_pass(tmp_path):
    for name in WORKLOADS:
        (tmp_path / name).mkdir()
        for index in (0, 1):
            workload, entry, calls = _session(name, tmp_path / name, index)
            assert workload.check(entry, calls) == [], name


def test_corrupted_certificate_rejected(tmp_path):
    workload, entry, calls = _session("spread-check", tmp_path)

    def repeat_petal(report):
        petals = report["results"]["certificate"]["petals"]
        petals[1] = petals[0]

    assert workload.check(entry, _with_report(calls, 1, repeat_petal))

    workload, entry, calls = _session("sunflower-search", tmp_path, 1)
    members = set(entry.data["masks"])
    outsider = next(list(range(x, x + 6)) for x in range(13)
                    if checker.mask_of(range(x, x + 6)) not in members)

    def foreign_petal(report):
        report["results"]["certificate"]["petals"][0] = outsider

    assert workload.check(entry, _with_report(calls, 0, foreign_petal))


def test_flipped_gamma_verdict_rejected(tmp_path):
    workload, entry, calls = _session("spread-check", tmp_path)

    def flip(report):
        report["results"]["holds"] = not report["results"]["holds"]

    assert workload.check(entry, _with_report(calls, 0, flip))


def test_off_by_one_ratio_rejected(tmp_path):
    workload, entry, calls = _session("spread-check", tmp_path)

    def bump(report):
        report["results"]["ratio"][0] += 1

    assert workload.check(entry, _with_report(calls, 0, bump))


def test_split_below_bound_rejected(tmp_path):
    workload, entry, calls = _session("split-search", tmp_path)
    masks = [checker.mask_of(s) for s in json.loads(calls[0][1])["sets"]]
    worst = min(checker.partitions(9, 3),
                key=lambda blocks: len(checker.retained_by(masks, blocks)))
    kept = checker.retained_by(masks, worst)
    assert len(kept) < checker.split_bound(9, 3, len(masks))

    def poor_split(report):
        res = report["results"]
        res["split"] = [list(checker.labels_of(b)) for b in worst]
        res["retained"]["sets"] = sorted(checker.labels_of(u) for u in kept)
        res["retainedSize"] = len(kept)

    assert workload.check(entry, _with_report(calls, 2, poor_split))


def test_overlapping_engine_part_rejected(tmp_path):
    workload, entry, calls = _session("engine-fixpoint", tmp_path)

    def overlap(report):
        # claim one more member for the first part without adding it to
        # familyHat, i.e. a member shared with another part
        audit = report["results"]["audit"]
        part = audit["parts"][0]
        part["sizeT"] += 1
        for line in audit["consistency"]:
            if line["C"] == part["C"]:
                line["sum_parts"] += 1
                line["discarded"] -= 1

    assert workload.check(entry, _with_report(calls, 0, overlap))


def test_injected_faults_count_as_failed_sessions(tmp_path):
    workload, entry, calls = _session("spread-check", tmp_path)

    def flip(report):
        report["results"]["holds"] = not report["results"]["holds"]

    loop = run.Loop()
    good = (0,) + tuple((c, run.strip_timings(t)) for c, t in calls)
    bad = (0,) + tuple((c, run.strip_timings(t))
                       for c, t in _with_report(calls, 0, flip))
    loop.unique = {good: 0, bad: 1}
    loop.session_keys = [0, 1, 1, None]
    assert run.count_failures(workload, [entry], [loop]) == (4, 3)


def test_same_seed_gives_identical_inputs(tmp_path):
    for name, workload in WORKLOADS.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir()
        b.mkdir()
        workload.make(3, str(a))
        workload.make(3, str(b))
        files = sorted(os.listdir(a))
        assert files == sorted(os.listdir(b))
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes()


def test_tracer_passes_results_through_and_restores(tmp_path):
    entry = WORKLOADS["sunflower-search"].make(5, str(tmp_path))[1]
    original = sunflower.gamma.check_gamma
    plain = run.run_session(cli, entry)
    tracer = Tracer()
    tracer.install(sunflower)
    try:
        assert sunflower.sunflowers.check_gamma is not original
        traced = tracer.session_span(0, lambda: run.run_session(cli, entry))
    finally:
        tracer.uninstall()
    assert sunflower.gamma.check_gamma is original
    assert sunflower.sunflowers.check_gamma is original
    assert ([(c, run.strip_timings(t)) for c, t in plain]
            == [(c, run.strip_timings(t)) for c, t in traced])
    assert tracer.calls["sunflowers.find_sunflower_exact"] == 1
    assert tracer.calls["bench.session"] == 1
    own = sum(tracer.self_s.values())
    assert abs(own - tracer.session_s) < 1e-6


def test_tracer_counts_splits_the_program_draws(tmp_path):
    entry = WORKLOADS["split-search"].make(5, str(tmp_path))[0]
    original = sunflower.splits.enumerate_splits
    tracer = Tracer()
    tracer.install(sunflower)
    try:
        tracer.session_span(0, lambda: run.run_session(cli, entry))
        assert tracer.pending
        tracer.count_pending()
    finally:
        tracer.uninstall()
    assert sunflower.splits.enumerate_splits is original
    assert not tracer.pending
    # one exhaustive search over the 280 splits of 9 labels into 3 strips
    assert tracer.sums["splits.splits_enumerated"] == 280
    assert tracer.sums["harness.sets_generated"] == 30
