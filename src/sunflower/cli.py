"""Command line interface.

One binary, eight subcommands.  Generation subcommands print the family
text format by default (``--json`` for the JSON form).  Analysis handlers
return an exit code, inputs and results, which :func:`main` alone wraps
in the JSON report envelope {command, inputs, results, timings, seed} and
prints: one line per top-level key, in sorted order, each value compact
with sorted keys.

Exit codes: 0 success or found; 1 an engine or kernel contract violation,
or a transversal-check identity mismatch; 3 proven absent; 4 budget or
trials exhausted; 5 input error.  An error prints one ``error:`` line and
no report.  The environment variable SUNFLOWER_BUDGET overrides the
default search budgets.

Families lying on a split are interpreted against the contiguous split of
their universe (strips are consecutive blocks); generate inputs with
``gen-random --on-split`` or ``gen-extremal`` to match.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

# Each command imports the modules it runs in its handler, so a call loads
# only those; errors and families serve every command.
from .errors import (BudgetExceededError, ContractViolationError,
                     TrialsExhaustedError)
from .families import (DEFAULT_SHADOW_BUDGET, GroundSet, SetFamily, Split,
                       family_from_json_obj, family_from_text, labels_mask,
                       mask_labels, pad_universe)

if TYPE_CHECKING:
    from .basesets import Constants, ElementaryPart

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ABSENT = 3
EXIT_BUDGET = 4
EXIT_INPUT = 5

# json.dumps builds a new encoder for every call that passes sort_keys;
# every sorted-keys value this module writes goes through this one, whose
# encode runs the same C encoder and writes the same bytes
_ENCODER = json.JSONEncoder(sort_keys=True)


def _load_json(text: str, path: str):
    """``json.loads(text)``; a text that is not JSON raises ValueError
    naming ``path``, the file it came from."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_family(path: str) -> SetFamily:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    if text.lstrip().startswith("{"):
        return family_from_json_obj(_load_json(text, path))
    return family_from_text(text)


def _print_report(report: dict) -> None:
    """Print ``{``, one ``  "key": value`` line per top-level key in sorted
    order, then ``}``.  Each value is compact JSON with sorted keys,
    written by the module's one shared encoder, ``_ENCODER``, which the C
    encoder backs (any ``indent`` selects the pure-Python one); the
    parsed object is the one ``json.dumps(report, sort_keys=True,
    indent=2)`` prints."""
    encode = _ENCODER.encode
    lines = (f"  {encode(key)}: {encode(report[key])}"
             for key in sorted(report))
    print("{\n" + ",\n".join(lines) + "\n}")


def _emit_family(family: SetFamily, as_json: bool) -> None:
    if as_json:
        print(_ENCODER.encode(family.to_json_obj()))
    else:
        sys.stdout.write(family.to_text())


def _parse_labels(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(tok) for tok in text.split(",")]


def _budget_default(default: int) -> int:
    env = os.environ.get("SUNFLOWER_BUDGET")
    if not env:
        return default
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise ValueError(
            f"SUNFLOWER_BUDGET must be a positive integer, got {env!r}")
    return budget


def _parse_base(text: str) -> Fraction:
    """A spreadness base (integer, decimal or p/q) as an exact fraction;
    a zero denominator raises ValueError like any other malformed base."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"base {text!r} has a zero denominator") from None


def _cmd_gen_extremal(args) -> int:
    from .extremal import build_extremal
    _emit_family(build_extremal(args.k, args.m), args.json)
    return EXIT_OK


def _cmd_gen_random(args) -> int:
    from .harness import generate_random_family
    split = Split.contiguous(args.n, args.m) if args.on_split else None
    family = generate_random_family(args.n, args.m, args.size, args.seed,
                                    on_split=split)
    _emit_family(family, args.json)
    return EXIT_OK


def _cmd_find_sunflower(args) -> tuple[int, dict, dict]:
    from .sunflowers import (DEFAULT_SEARCH_NODE_BUDGET, SunflowerCertificate,
                             extract_disjoint_via_gamma, find_sunflower_exact,
                             verify_certificate)
    if args.core is not None and args.gamma is None:
        raise ValueError("--core requires --gamma")
    family = _read_family(args.family)
    inputs = {"k": args.k, "mode": "gamma" if args.gamma else "exact",
              "familySize": len(family), "n": family.universe.n}
    node_budget = _budget_default(DEFAULT_SEARCH_NODE_BUDGET)
    shadow_budget = _budget_default(DEFAULT_SHADOW_BUDGET)
    if args.gamma is None:
        cert = find_sunflower_exact(family, args.k, node_budget=node_budget,
                                    shadow_budget=shadow_budget)
        found = cert is not None
        results = {"found": found, "provenAbsent": not found,
                   "certificate": cert.to_json_obj() if cert else None}
        if found:
            results["verified"] = verify_certificate(cert)
        return EXIT_OK if found else EXIT_ABSENT, inputs, results
    b = _parse_base(args.gamma)
    core_labels = _parse_labels(args.core) if args.core else []
    inputs["b"] = str(b)
    inputs["core"] = core_labels
    work = family
    if core_labels:
        # quotient by the core: keep supersets, strip the core, extract
        # disjoint petals there, then put the core back
        uni = family.universe
        core = GroundSet(uni, labels_mask(uni._check_labels(core_labels)))
        c = core.bits
        quotient = [u & ~c for u in family._mask_set if u & c == c]
        if not quotient:
            return EXIT_ABSENT, inputs, {
                "found": False, "provenAbsent": False,
                "note": "no member contains the requested core"}
        work = SetFamily(family.universe, quotient,
                         m=max(0, family.m - core.cardinality))
    cert = extract_disjoint_via_gamma(work, args.k, b,
                                      shadow_budget=shadow_budget)
    if cert is None:
        return EXIT_BUDGET, inputs, {
            "found": False, "provenAbsent": False,
            "note": "greedy extraction stalled outside the guaranteed regime"}
    if core_labels:
        cert = SunflowerCertificate(
            tuple(GroundSet(uni, p.bits | core.bits)
                  for p in cert.petals), core)
    return EXIT_OK, inputs, {"found": True, "provenAbsent": False,
                             "certificate": cert.to_json_obj(),
                             "verified": verify_certificate(cert)}


def _cmd_check_gamma(args) -> tuple[int, dict, dict]:
    from .gamma import check_gamma
    family = _read_family(args.family)
    b = _parse_base(args.b)
    report = check_gamma(family, b,
                         budget=_budget_default(DEFAULT_SHADOW_BUDGET))
    return (EXIT_OK,
            {"b": str(b), "familySize": len(family), "n": family.universe.n},
            report.to_json_obj())


def _cmd_split(args) -> tuple[int, dict, dict]:
    from .splits import DEFAULT_SPLIT_ENUM_BUDGET, find_good_split
    family = _read_family(args.family)
    if args.pad_to:
        family = pad_universe(family, args.pad_to)
    inputs = {"mode": args.mode, "trials": args.trials,
              "familySize": len(family), "n": family.universe.n}
    try:
        result = find_good_split(family, mode=args.mode, trials=args.trials,
                                 seed=args.seed,
                                 enum_budget=_budget_default(
                                     DEFAULT_SPLIT_ENUM_BUDGET))
    except TrialsExhaustedError as exc:
        return EXIT_BUDGET, inputs, {"met": False,
                                     "bestRetained": len(exc.best.retained)}
    results = {
        "met": True,
        "split": result.split.strip_labels(),
        "retained": result.retained.to_json_obj(),
        "retainedSize": len(result.retained),
        "bound": [result.bound.numerator, result.bound.denominator],
    }
    # written before the report, so a failed write prints no report
    if args.emit_family:
        with open(args.emit_family, "w") as fh:
            fh.write(result.retained.to_text())
    return EXIT_OK, inputs, results


def _cmd_transversal_check(args) -> tuple[int, dict, dict]:
    from .splits import (DEFAULT_TRANSVERSAL_BUDGET, transversal_count_brute,
                         transversal_formula)
    family = _read_family(args.family)
    brute = transversal_count_brute(
        family, args.j, budget=_budget_default(DEFAULT_TRANSVERSAL_BUDGET))
    formula = transversal_formula(family, args.j)
    equal = Fraction(brute) == formula
    return (EXIT_OK if equal else EXIT_VIOLATION,
            {"j": args.j, "familySize": len(family), "n": family.universe.n},
            {"brute": brute,
             "formula": [formula.numerator, formula.denominator],
             "equal": equal})


def _part_obj(part: ElementaryPart) -> dict:
    return {"B": list(mask_labels(part.B)), "Xprime": list(part.key),
            "size": len(part.T), "variant": part.variant}


def _engine_inputs(args) -> tuple[SetFamily, Constants, Split]:
    """The family, its constants (famSize filled with its size when
    unset) and the contiguous split of its universe into m strips, the
    only split the engine commands use."""
    from . import basesets as bs
    family = _read_family(args.family)
    with open(args.constants) as fh:
        cfg = bs.constants_from_dict(_load_json(fh.read(), args.constants))
    # checked before famSize is filled with its size, which must be positive
    if not len(family):
        raise ValueError("family must be nonempty")
    if cfg.fam_size is None:
        cfg = cfg.with_fam_size(len(family))
    return family, cfg, Split.contiguous(family.universe.n, cfg.m)


def _traced(path: str | None, engine, *engine_args):
    """Run ``engine(*engine_args)``; write its JSONL trace to ``path``, if
    given, on a contract violation and on success, before main prints."""
    try:
        out = engine(*engine_args)
    except ContractViolationError as exc:
        _write_trace(path, exc.trace)
        raise
    _write_trace(path, out.trace)
    return out


def _write_trace(path: str | None, rows) -> None:
    if path:
        with open(path, "w") as fh:
            for row in rows:
                fh.write(_ENCODER.encode(row) + "\n")


def _cmd_basesets(args) -> tuple[int, dict, dict]:
    from . import basesets as bs
    family, cfg, split = _engine_inputs(args)
    if args.g_family:
        collection, skipped = bs.ComponentCollection.derive(
            family, split, args.mprime, _read_family(args.g_family))
        if len(skipped):
            print(f"warning: {len(skipped)} members match no anchor "
                  "and were dropped", file=sys.stderr)
    elif args.mprime == cfg.m:
        collection = bs.ComponentCollection.initial(family, split)
    else:
        bs._check_rank(args.mprime, cfg.m)
        raise ValueError("--g-family is required when --mprime is below m")
    inputs = {"mprime": args.mprime, "constants": cfg.to_json_obj(),
              "familySize": len(family)}
    out = _traced(args.trace, bs.base_sets, collection, cfg)
    return EXIT_OK, inputs, {"r": out.r,
                             "baseSets": out.base_sets.to_json_obj(),
                             "family": out.family.to_json_obj(),
                             "parts": [_part_obj(p) for p in out.parts],
                             "extractions": len(out.trace)}


def _cmd_process_r(args) -> tuple[int, dict, dict]:
    from . import basesets as bs
    family, cfg, split = _engine_inputs(args)
    bs._check_audit_regime(cfg)  # the audit would reject cfg after the run
    inputs = {"constants": cfg.to_json_obj(), "familySize": len(family)}
    result = _traced(args.trace, bs.process_r, family, split, cfg)
    audit = bs.audit_terminal_bases(result, family, cfg)
    results = {
        "pHat": result.p_hat,
        "rHat": result.r_hat,
        "basesHat": result.bases_hat.to_json_obj(),
        "familyHat": result.family_hat.to_json_obj(),
        "steps": [{"p": s.p, "rIn": s.r_in, "rOut": s.output.r,
                   "extracted": sum(len(part.T) for part in s.output.parts)}
                  for s in result.steps],
        "audit": audit,
    }
    return EXIT_OK, inputs, results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunflower",
        description="Desk-scale sunflower combinatorics toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-extremal",
                       help="product construction of (k-1)^m sets")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen_extremal)

    p = sub.add_parser("gen-random", help="uniform random family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--on-split", action="store_true",
                   help="one element per strip of the contiguous split")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("find-sunflower",
                       help="exact search or spreadness-based extraction")
    p.add_argument("family", help="family file, or - for stdin")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gamma", metavar="B",
                   help="greedy disjoint extraction under b-spreadness")
    p.add_argument("--core", metavar="LABELS",
                   help="comma-separated core to quotient by; requires --gamma")
    p.set_defaults(func=_cmd_find_sunflower)

    p = sub.add_parser("check-gamma", help="exact spreadness verdict")
    p.add_argument("family")
    p.add_argument("--b", required=True,
                   help="spreadness base (integer, decimal, or p/q)")
    p.set_defaults(func=_cmd_check_gamma)

    p = sub.add_parser("split", help="find a split retaining many members")
    p.add_argument("family")
    p.add_argument("--mode", choices=["exhaustive", "random"],
                   default="exhaustive")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pad-to", type=int, default=0,
                   help="re-embed into a universe of this size first")
    p.add_argument("--emit-family", metavar="PATH",
                   help="also write the retained family text here")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("transversal-check",
                       help="brute count vs closed form")
    p.add_argument("family")
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=_cmd_transversal_check)

    p = sub.add_parser("basesets", help="one extraction-engine call")
    p.add_argument("family")
    p.add_argument("--mprime", type=int, required=True)
    p.add_argument("--constants", required=True, metavar="FILE")
    p.add_argument("--g-family", metavar="PATH",
                   help="anchor family (defaults to the family itself "
                        "when --mprime equals m)")
    p.add_argument("--trace", metavar="PATH", help="JSONL extraction trace")
    p.set_defaults(func=_cmd_basesets)

    p = sub.add_parser("process-r", help="iterate the engine to a fixpoint")
    p.add_argument("family")
    p.add_argument("--constants", required=True, metavar="FILE")
    p.add_argument("--trace", metavar="PATH", help="JSONL extraction trace")
    p.set_defaults(func=_cmd_process_r)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call in a process reuses: parse_args
    keeps no state between calls and returns a fresh namespace each time,
    and no option has a mutable default."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        outcome = args.func(args)
        if isinstance(outcome, int):
            return outcome  # a generator, which printed its family
        code, inputs, results = outcome
        _print_report({"command": args.subcommand, "inputs": inputs,
                       "results": results,
                       "timings": {"totalSeconds": time.perf_counter() - t0},
                       "seed": getattr(args, "seed", None)})
        return code
    except (BudgetExceededError, TrialsExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    # GammaPreconditionError is a ValueError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
