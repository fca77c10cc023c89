"""Span recorder installed around the package's public functions.

The tracer replaces each public function of the traced modules (and a few
public methods) with a wrapper that records a span: name, start, end, its
own id, its parent's id and the session id.  Arguments and results pass
through untouched.  Because several modules import functions by name
(``from .gamma import check_gamma``), every module attribute that is the
original function object is patched, not only the defining module's.

Self time is computed online: each closing span adds its duration to its
parent's child time, so a span's self time is its duration minus the time
its children covered.  Per-name call counts and self times are aggregated
for every session; full spans are kept in memory only for the first
``KEEP_SESSIONS`` sessions and written as JSONL when the run ends, which
bounds memory on workloads that make hundreds of thousands of calls.

Work counts that need the arguments or results (e.g. the subsets a shadow
generates) are computed by :meth:`Tracer.count_pending`, which the caller
runs after a session's timed block, from references the wrapper keeps for
the few span names that have a counter.  Generator functions get no span;
the few in ``COUNTED_GENERATORS`` are wrapped to count the items the
program actually draws from them.
"""

from __future__ import annotations

import functools
import inspect
import json
from math import comb
from time import perf_counter

TRACED_MODULES = ("cli", "families", "gamma", "sunflowers", "splits",
                  "basesets", "harness")

# Sessions whose full spans are kept for the JSONL trace.
KEEP_SESSIONS = 2

# Per-element bit helpers are called from sort keys thousands of times per
# verdict; a span each would dominate the trace, so their time stays in the
# caller's self time.
UNTRACED = {"mask_labels", "labels_mask"}

# Public methods traced by name; the span is named "<module>.<name>" except
# for constructors, which keep the class name.
METHODS = {
    ("families", "SetFamily"): {
        "__init__": "families.SetFamily.init",
        "restrict": "families.restrict",
        "shadow": "families.shadow",
        "shadow_contains": "families.shadow_contains",
        "on_subsplit": "families.on_subsplit",
        "difference": "families.difference",
    },
    ("basesets", "ComponentCollection"): {
        "__init__": "basesets.ComponentCollection.init",
        "regroup": "basesets.ComponentCollection.regroup",
        "derive": "basesets.ComponentCollection.derive",
    },
}

# Both family parsers report under one layer name.
RENAMED = {"family_from_text": "families.parse",
           "family_from_json_obj": "families.parse"}


def _mode_variant(args, kwargs, result):
    return kwargs.get("mode", args[1] if len(args) > 1 else "exhaustive")


def _outcome_variant(args, kwargs, result):
    return "absent" if result is None else "present"


# Spans whose self time is also split by a property of the call.
VARIANTS = {"splits.find_good_split": _mode_variant,
            "sunflowers.find_sunflower_exact": _outcome_variant}


def _nonempty_submasks(masks) -> set[int]:
    out = set()
    for u in masks:
        s = u
        while s:
            out.add(s)
            s = (s - 1) & u
    return out


def _shadow_counts(args, kwargs, result):
    yield "families.shadow.subsets", sum(1 << u.bit_count()
                                         for u in args[0].masks())


def _check_gamma_counts(args, kwargs, result):
    yield "gamma.check_gamma.candidates", len(_nonempty_submasks(
        args[0].masks()))


def _split_counts(args, kwargs, result):
    yield "splits.retained_over_bound", (len(result.retained)
                                         / float(result.bound), "mean")


def _transversal_counts(args, kwargs, result):
    # The tuples the brute count must cover, a closed form of (n, m, j): the
    # recursion that visits them is a closure no wrapper can reach.
    family = args[0]
    j = kwargs.get("j", args[1] if len(args) > 1 else None)
    n, m = family.universe.n, family.members[0].cardinality
    d = n // m
    tuples = 1
    for i in range(j):
        tuples *= comb(n - d * i, d)
    yield "splits.transversal_tuples", tuples


def _process_r_counts(args, kwargs, result):
    yield "basesets.extractions", len(result.trace)
    yield "basesets.retained_frac", (len(result.family_hat) / len(args[0]),
                                     "mean")


def _generate_counts(args, kwargs, result):
    yield "harness.sets_generated", len(result)


# Work counts derived from a call's arguments or result.  A value is summed
# per session, or averaged over calls when given as (value, "mean").
COUNTERS = {"families.shadow": _shadow_counts,
            "gamma.check_gamma": _check_gamma_counts,
            "splits.find_good_split": _split_counts,
            "splits.transversal_count_brute": _transversal_counts,
            "basesets.process_r": _process_r_counts,
            "harness.generate_random_family": _generate_counts}

# Generator functions wrapped to count, per session, the items drawn.
COUNTED_GENERATORS = {"splits.enumerate_splits": "splits.splits_enumerated"}


class Tracer:
    """Holds the span stack, the per-name aggregates and the kept spans."""

    def __init__(self):
        self.stack: list[list] = []   # [span id, child seconds]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.variant_self_s: dict[str, float] = {}
        self.kept: list[tuple] = []
        self.pending: list[tuple] = []
        self.sums: dict[str, float] = {}
        self.means: dict[str, list] = {}
        self.session = -1
        self.sessions = 0
        self.session_s = 0.0
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _open(self) -> tuple[int, int | None, list]:
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [sid, 0.0]
        self.stack.append(frame)
        return sid, parent, frame

    def _close(self, name: str, sid: int, parent, frame: list,
               t0: float, t1: float) -> float:
        self.stack.pop()
        dur = t1 - t0
        if self.stack:
            self.stack[-1][1] += dur
        own = dur - frame[1]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        if self.session < KEEP_SESSIONS:
            self.kept.append((name, t0, t1, sid, parent, self.session))
        return own

    def wrap(self, name: str, fn):
        variant = VARIANTS.get(name)
        counted = name in COUNTERS
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, frame = tracer._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                own = tracer._close(name, sid, parent, frame, t0,
                                    perf_counter())
            if variant is not None:
                key = f"{name}.{variant(args, kwargs, result)}"
                tracer.variant_self_s[key] = (
                    tracer.variant_self_s.get(key, 0.0) + own)
            if counted:
                tracer.pending.append((name, args, kwargs, result))
            return result

        return functools.wraps(fn)(traced)

    def wrap_generator(self, metric: str, fn):
        sums = self.sums

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                sums[metric] = sums.get(metric, 0) + 1
                yield item

        return functools.wraps(fn)(counted)

    def session_span(self, index: int, run):
        """Run ``run()`` as session ``index`` under a root span; returns
        run's result.  The root's self time is the benchmark's own glue."""
        self.session = index
        sid, parent, frame = self._open()
        t0 = perf_counter()
        try:
            return run()
        finally:
            t1 = perf_counter()
            self._close("bench.session", sid, parent, frame, t0, t1)
            self.sessions += 1
            self.session_s += t1 - t0

    def count_pending(self) -> None:
        """Work counts of the calls made since the last count."""
        for name, args, kwargs, result in self.pending:
            for metric, value in COUNTERS[name](args, kwargs, result):
                if isinstance(value, tuple):
                    acc = self.means.setdefault(metric, [0.0, 0])
                    acc[0] += value[0]
                    acc[1] += 1
                else:
                    self.sums[metric] = self.sums.get(metric, 0) + value
        self.pending = []

    # -- installation --------------------------------------------------
    def install(self, package) -> None:
        """Patch the traced functions of ``package`` (the imported
        ``sunflower`` package) and every by-name import of them."""
        modules = {name: getattr(package, name) for name in TRACED_MODULES}
        all_modules = [m for m in vars(package).values()
                       if inspect.ismodule(m)
                       and m.__name__.startswith(package.__name__ + ".")]
        all_modules.append(package)
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or attr in UNTRACED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = RENAMED.get(attr, f"{short}.{attr}")
                if inspect.isgeneratorfunction(fn):
                    if name not in COUNTED_GENERATORS:
                        continue
                    wrapped = self.wrap_generator(COUNTED_GENERATORS[name],
                                                  fn)
                else:
                    wrapped = self.wrap(name, fn)
                for other in all_modules:
                    for oname, oval in list(vars(other).items()):
                        if oval is fn:
                            self._restore.append((other, oname, fn))
                            setattr(other, oname, wrapped)
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(modules[short], cls_name)
            for attr, span_name in methods.items():
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span_name, raw.__func__))
                else:
                    new = self.wrap(span_name, raw)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output --------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, sid, parent, session in self.kept:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "id": sid, "parent": parent,
                                     "session": session}) + "\n")
