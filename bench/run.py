"""Session benchmark for the sunflower CLI.

Usage, from the repository root:

    python3 bench/run.py --workload spread-check --seed 1 --seconds 20 --trace 0

One client in one thread runs a closed loop of sessions through
``sunflower.cli.main(argv)`` in-process, cycling through a pool of inputs
generated from ``--seed``, for ``--seconds`` seconds.  Every distinct
session result is checked by the independent checker after the loop.
Times are rescaled to a fixed machine speed, measured by a reference loop
around every session (see :class:`Gauge`).  With ``--trace 0`` the last
stdout line reports the end-to-end metrics; with ``--trace 1`` the run
spends half its time untraced and half traced and reports the per-layer
metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter, process_time

from tracer import Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 15
REFERENCE_S = 0.001
WORK_DIR = ".bench_work"
TIMINGS_MARK = ',\n  "timings": '

# One set-up repeat, run as a new interpreter: argv[1] is the package's
# directory, argv[2] the warm-up session as JSON [steps, save_to].  Mirrors
# run_session, without checking the results.
SETUP_PROGRAM = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from sunflower import cli
cli.build_parser()
steps, save_to = json.loads(sys.argv[2])
for i, argv in enumerate(steps):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit:
            pass
    if i == 0 and save_to:
        with open(save_to, "w") as fh:
            fh.write(out.getvalue())
"""

# Per-layer metrics of the traced run.  Every name is reported on every
# workload; a layer a workload never enters reads 0.
SELF_TIME_LAYERS = [
    "cli.main", "families.parse", "families.SetFamily.init",
    "families.shadow", "families.restrict", "families.shadow_contains",
    "families.on_subsplit", "gamma.check_gamma",
    "gamma.check_gamma_on_subsplit", "sunflowers.extract_disjoint_via_gamma",
    "sunflowers.verify_certificate", "splits.transversal_count_brute",
    "basesets.process_r", "basesets.base_sets",
    "basesets.audit_terminal_bases", "basesets.ComponentCollection.regroup",
    "harness.generate_random_family", "bench.session",
]
CALL_LAYERS = [
    "families.SetFamily.init", "families.shadow", "families.restrict",
    "families.shadow_contains", "families.on_subsplit", "gamma.check_gamma",
    "gamma.check_gamma_on_subsplit", "basesets.base_sets",
]
VARIANT_SELF_TIMES = [
    "sunflowers.find_sunflower_exact.absent",
    "sunflowers.find_sunflower_exact.present",
    "splits.find_good_split.exhaustive", "splits.find_good_split.random",
]
SUMMED_COUNTS = [
    "families.shadow.subsets", "gamma.check_gamma.candidates",
    "splits.splits_enumerated", "splits.transversal_tuples",
    "basesets.extractions", "harness.sets_generated",
]
MEAN_RATIOS = ["splits.retained_over_bound", "basesets.retained_frac"]


def run_session(cli, entry) -> list[tuple[int, str]]:
    """The CLI calls of one session; returns (exit code, stdout) per call."""
    calls = []
    for i, argv in enumerate(entry.steps):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        text = out.getvalue()
        if i == 0 and entry.save_to:
            with open(entry.save_to, "w") as fh:
                fh.write(text)
        calls.append((code, text))
    return calls


def strip_timings(text: str) -> str:
    """The report without its top-level ``timings`` member, which is the
    only part of a session result that may differ between runs."""
    cut = text.find(TIMINGS_MARK)
    if cut < 0:
        return text
    end = text.find("}", cut)
    return text[:cut] + text[end + 1:]


def reference_work():
    """Fixed pure-Python work (integer arithmetic, dict updates, a sort),
    timed around every session to gauge the machine's momentary speed."""
    counts: dict[int, int] = {}
    x = 1
    for _ in range(2000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        counts[x & 0xFFF] = counts.get(x & 0xFFF, 0) + 1
    return sorted(counts.items(), key=lambda kv: kv[1])


class Gauge:
    """Reference timings of one run, to express times at a fixed speed.

    On a shared host the machine alternates, for seconds at a time, between
    phases up to 1.6x apart in speed, so raw medians depend on how a run
    overlapped them.  Each timed block is bracketed by two runs of
    :func:`reference_work`, and its time is rescaled to a machine on which
    that work takes exactly ``REFERENCE_S``: it is multiplied by
    ``REFERENCE_S`` over the mean of its two reference timings.
    """

    def __init__(self):
        self.samples: list[float] = []

    def measure(self) -> float:
        t0 = perf_counter()
        reference_work()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def timed(self, fn):
        """(fn(), wall seconds, CPU seconds, reference seconds)."""
        before = self.measure()
        t0, c0 = perf_counter(), process_time()
        result = fn()
        wall, cpu = perf_counter() - t0, process_time() - c0
        return result, wall, cpu, (before + self.measure()) / 2


def scaled(values, refs) -> list[float]:
    """Times rescaled to the reference speed."""
    return [v * REFERENCE_S / r for v, r in zip(values, refs)]


@dataclass
class Timings:
    """Wall time, CPU time and bracketing reference time per timed block."""

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)

    def add(self, wall: float, cpu: float, ref: float) -> None:
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.refs.append(ref)


def set_up(src: str, entry, gauge: Gauge) -> Timings:
    """Repeats of a new interpreter that imports sunflower.cli, builds the
    parser and runs one warm-up session, so each repeat pays every import
    a user's process pays.  CPU times are left empty: the work is done in
    the child."""
    times = Timings()
    argv = [sys.executable, "-c", SETUP_PROGRAM, src,
            json.dumps([entry.steps, entry.save_to])]

    def once():
        return subprocess.run(argv, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)

    for _ in range(SETUP_REPEATS):
        proc, wall, _, ref = gauge.timed(once)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.walls.append(wall)
        times.refs.append(ref)
    return times


@dataclass
class Loop:
    """Results of one timed closed loop.  ``unique`` maps each distinct
    session result (pool index, then exit code and report per call) to its
    index; ``session_keys`` holds that index per session, None on a crash."""

    sessions: Timings = field(default_factory=Timings)
    session_keys: list[int | None] = field(default_factory=list)
    unique: dict[tuple, int] = field(default_factory=dict)
    report_bytes: int = 0
    wall: float = 0.0


def timed_loop(cli, entries, seconds: float, gauge: Gauge,
               tracer: Tracer | None) -> Loop:
    """Run sessions back to back for ``seconds``, and at least one pass over
    the pool so that every input's result is checked and digested."""
    loop = Loop()
    gc.collect()
    start = perf_counter()
    i = 0
    while i < len(entries) or perf_counter() - start < seconds:
        entry_index = i % len(entries)
        entry = entries[entry_index]

        def attempt():
            try:
                if tracer is None:
                    return run_session(cli, entry)
                return tracer.session_span(
                    i, lambda: run_session(cli, entry))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                return None

        calls, wall, cpu, ref = gauge.timed(attempt)
        loop.sessions.add(wall, cpu, ref)
        if tracer is not None:
            tracer.count_pending()
        if calls is None:
            loop.session_keys.append(None)
        else:
            loop.report_bytes += sum(len(text) for _, text in calls)
            key = (entry_index,) + tuple((code, strip_timings(text))
                                         for code, text in calls)
            loop.session_keys.append(loop.unique.setdefault(
                key, len(loop.unique)))
        i += 1
    loop.wall = perf_counter() - start
    return loop


def count_failures(workload, entries, loops) -> tuple[int, int]:
    """(sessions attempted, sessions failed) over the loops; each distinct
    result is checked once."""
    verdicts: dict[tuple, bool] = {}
    attempted = failed = 0
    for loop in loops:
        keys = {index: key for key, index in loop.unique.items()}
        for index in loop.session_keys:
            attempted += 1
            if index is None:
                failed += 1
                continue
            key = keys[index]
            if key not in verdicts:
                entry = entries[key[0]]
                try:
                    problems = workload.check(entry, list(key[1:]))
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    problems = [f"unreadable report: {exc!r}"]
                for problem in problems:
                    print(f"FAIL {entry.name}: {problem}", file=sys.stderr)
                verdicts[key] = not problems
            failed += not verdicts[key]
    return attempted, failed


def verdict_digest(loop: Loop, entries) -> str:
    """SHA-256 over the first result of every pool input, timings removed."""
    keys = {index: key for key, index in loop.unique.items()}
    canonical = []
    for index in loop.session_keys[:len(entries)]:
        if index is None:
            canonical.append(None)
            continue
        key = keys[index]
        entry = entries[key[0]]
        session = []
        for argv, (code, text) in zip(entry.steps, key[1:]):
            try:
                output = json.loads(text)
            except ValueError:
                output = text
            session.append({"argv": argv, "exit": code, "output": output})
        canonical.append(session)
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def end_to_end(loop: Loop, setup: Timings, peak_rss_mb: float) -> dict:
    t = loop.sessions
    walls = scaled(t.walls, t.refs)
    n = len(walls)
    return {
        "session_p50_s": (statistics.median(walls), "s"),
        "session_p90_s": (statistics.quantiles(walls, n=10)[8], "s"),
        "sessions_per_s": (n / sum(walls), "1/s"),
        "cpu_per_session_s": (sum(scaled(t.cpus, t.refs)) / n, "s"),
        "setup_s": (statistics.median(scaled(setup.walls, setup.refs)),
                    "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, plain: Loop, traced: Loop) -> dict:
    n = tracer.sessions
    plain_s = sum(scaled(plain.sessions.walls, plain.sessions.refs))
    traced_s = sum(scaled(traced.sessions.walls, traced.sessions.refs))
    # self times are rescaled like the sessions that contain them
    k = traced_s / sum(traced.sessions.walls)
    out = {}
    for name in SELF_TIME_LAYERS:
        out[f"{name}.self_s"] = (k * tracer.self_s.get(name, 0.0) / n, "s")
    for name in CALL_LAYERS:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0) / n, "count")
    for name in VARIANT_SELF_TIMES:
        layer, variant = name.rsplit(".", 1)
        out[f"{layer}.{variant}_self_s"] = (
            k * tracer.variant_self_s.get(name, 0.0) / n, "s")
    for name in SUMMED_COUNTS:
        out[name] = (tracer.sums.get(name, 0) / n, "count")
    for name in MEAN_RATIOS:
        total, calls = tracer.means.get(name, (0.0, 0))
        out[name] = (total / calls if calls else 0.0, "ratio")
    out["cli.report_bytes"] = (traced.report_bytes / n, "B")
    module_self = sum(tracer.self_s.values()) - tracer.self_s["bench.session"]
    out["trace.session_s"] = (k * tracer.session_s / n, "s")
    # 1 minus the glue share by construction, as cli.main is wrapped
    out["trace.accounted_frac"] = (module_self / tracer.session_s, "ratio")
    plain_rate = len(plain.sessions.walls) / plain_s
    out["trace.overhead_frac"] = (plain_rate / (n / traced_s) - 1, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "sunflower", "cli.py")):
        print("error: run from the repository root; src/sunflower is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    entries = workload.make(args.seed, workdir)

    from sunflower import cli
    if not cli.__file__.startswith(src + os.sep):
        print(f"error: imported {cli.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2
    gauge = Gauge()
    setup = set_up(src, entries[0], gauge)
    run_session(cli, entries[0])

    if args.trace:
        plain = timed_loop(cli, entries, args.seconds / 2, gauge, None)
        tracer = Tracer()
        tracer.install(sys.modules["sunflower"])
        try:
            traced = timed_loop(cli, entries, args.seconds / 2, gauge, tracer)
        finally:
            tracer.uninstall()
        tracer.write_jsonl(os.path.join(workdir, "trace.jsonl"))
        loops = [plain, traced]
        metrics = per_layer(tracer, plain, traced)
    else:
        plain = timed_loop(cli, entries, args.seconds, gauge, None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        loops = [plain]
        metrics = end_to_end(plain, setup, peak_rss_mb)

    attempted, failed = count_failures(workload, entries, loops)
    digest = verdict_digest(plain, entries)

    raw = plain.sessions.walls
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(raw)} untraced sessions over {plain.wall:.2f} s "
          f"(closed loop, one client), pool of {len(entries)} inputs")
    refs = statistics.quantiles(gauge.samples, n=10)
    print(f"  reference work: p10 {refs[0] * 1e3:.3f} ms, p90 "
          f"{refs[8] * 1e3:.3f} ms (times below are rescaled to "
          f"{REFERENCE_S * 1e3:g} ms); "
          f"raw session p50 {statistics.median(raw):.6g} s, "
          f"p90 {statistics.quantiles(raw, n=10)[8]:.6g} s, "
          f"raw setup {statistics.median(setup.walls):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(f"  {'failed_frac':48s} {failed / attempted:.6g} "
          f"({failed}/{attempted} sessions)")
    print(f"verdict_digest {digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
