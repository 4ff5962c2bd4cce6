"""Command line front end.

Subcommands: gen-group, verify-lemmas, word-eq, tup-check, cancel-sample,
zero-divisor.  Each binds a handler that returns (passed, details, lines);
`main` prints them as text or as JSON, and progress goes to stderr.  Exit
status: 0 on success/pass, 1 on a failed check (for word-eq: words not
equal), 2 on usage or runtime errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .errors import QsemiError
from .lemmas import run_lemma_suite
from .quaternion import (GroupTable, QuaternionConfig, describe_elements,
                         generate_group, group_checks)
from .structure import (canonical_ground_set, cancellation_report,
                        run_tup_sweep)
from .algebra import zero_divisor_search
from .words import (RewriteConfig, canonical_form, check_product_length,
                    default_config, format_word, parse_word, words_equal)


def _int_at_least(lo: int):
    """argparse type: an integer no smaller than lo."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}")
        return v
    return parse


_positive, _nonnegative = _int_at_least(1), _int_at_least(0)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once; each parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="qsemi",
        description="Verification tools for the quaternion-relation monoid")
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices  # name -> the subcommand's own parser
    # flag groups; each subcommand takes the ones it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--k", type=_int_at_least(2), required=True,
                        help="group size parameter, order 4k (k >= 2)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    word_cap = argparse.ArgumentParser(add_help=False)
    word_cap.add_argument(
        "--max-word-length", type=_nonnegative,
        help="cap on word length; unset or 0: words.default_config")
    # only the subcommands that enumerate classes take the class-size cap
    class_cap = argparse.ArgumentParser(add_help=False)
    class_cap.add_argument(
        "--max-class-size", type=_positive,
        help="cap on class members; default: words.default_config")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0,
                      help="seed for the randomized sampling")

    p = subs.add_parser("gen-group", parents=[common],
                        help="list the group elements")
    p.set_defaults(run=cmd_gen_group)

    p = subs.add_parser("verify-lemmas",
                        parents=[common, word_cap, class_cap],
                        help="run every lemma oracle")
    # inert, and echoed in params: the lemma-suite bench job passes both
    p.add_argument("--seed", type=int, default=0,
                   help="no longer changes what runs: no oracle draws")
    p.add_argument("--step3-samples", type=_positive, default=1000,
                   help="no longer changes what runs: Step3 takes its family")
    p.set_defaults(run=cmd_verify_lemmas)

    p = subs.add_parser("word-eq", parents=[common, word_cap],
                        help="decide equality of two words")
    p.add_argument("w1", help="comma-separated word, e.g. 1,2,3")
    p.add_argument("w2")
    p.set_defaults(run=cmd_word_eq)

    p = subs.add_parser("tup-check", parents=[common, word_cap],
                        help="sweep subset pairs for unique products")
    p.add_argument("--max-len", type=_positive, default=2,
                   help="ground set: canonical words up to this length")
    p.add_argument("--max-size", type=_int_at_least(2), default=3)
    p.add_argument("--limit", type=_nonnegative, default=200_000,
                   help="cap on subset pairs checked; 0 means no cap")
    p.set_defaults(run=cmd_tup_check)

    p = subs.add_parser("cancel-sample",
                        parents=[common, word_cap, class_cap, seed],
                        help="sample the cancellation laws")
    p.add_argument("--trials", type=_positive, default=10_000)
    p.add_argument("--max-len", type=_positive, default=12)
    p.set_defaults(run=cmd_cancel_sample)

    p = subs.add_parser("zero-divisor", parents=[common, word_cap, seed],
                        help="search for vanishing products")
    p.add_argument("--p", type=_positive, default=2, help="prime modulus")
    p.add_argument("--trials", type=_positive, default=10_000)
    p.add_argument("--max-support", type=_positive, default=3)
    p.add_argument("--max-len", type=_positive, default=10)
    p.set_defaults(run=cmd_zero_divisor)

    return parser


def _caps(args, n: int) -> RewriteConfig:
    """default_config(n), overridden by the caps set on the command line
    (the class-size cap only where the subcommand registers it)."""
    cfg = default_config(n)
    return RewriteConfig(getattr(args, "max_class_size", None)
                         or cfg.max_class_size,
                         args.max_word_length or cfg.max_word_length)


def _rng_digest(rng: random.Random) -> str:
    """A short hex digest of the generator's state: two runs that drew
    different bits from one seed leave different digests."""
    import zlib  # here, so that commands that draw nothing never load it
    return f"{zlib.crc32(repr(rng.getstate()).encode()):08x}"


def _progress(label: str):
    def report(count: int) -> None:
        print(f"{label}: {count} done", file=sys.stderr)
    return report


def cmd_gen_group(args, g: GroupTable) -> tuple[bool, dict, list[str]]:
    rows = describe_elements(g)
    lines = [f"group of order {len(g)} on {g.n} points (k={g.k})"]
    for r in rows:
        images = ",".join(str(x) for x in r["images"])
        lines.append(f"{r['index']:3d}  {r['label']:<10} {r['cycles']:<40} {images}")
    return True, {"order": len(g), "elements": rows,
                  "max_overlap": g.max_overlap}, lines


def cmd_verify_lemmas(args, g: GroupTable) -> tuple[bool, dict, list[str]]:
    reports = run_lemma_suite(g, _caps(args, g.n))
    checks = group_checks(g)
    ok = all(r.passed for r in reports) and all(checks.values())
    lines = []
    for r in reports:
        verdict = "PASS" if r.passed else "FAIL"
        if r.by_duality:
            verdict += " (by duality)"
        lines.append(f"{r.lemma_id.value:<16} k={r.k}  {verdict}")
        if not r.passed:
            lines.append(f"  counterexample: {r.counterexample}")
    for name, value in checks.items():
        lines.append(f"{name:<16} k={args.k}  {'PASS' if value else 'FAIL'}")
    details = {"lemmas": [r.to_json() for r in reports],
               "group_checks": checks,
               "by_duality": [r.lemma_id.value for r in reports
                              if r.by_duality]}
    return ok, details, lines


def cmd_word_eq(args, g: GroupTable) -> tuple[bool, dict, list[str]]:
    cfg = _caps(args, g.n)
    w1 = parse_word(args.w1, g.n)
    w2 = parse_word(args.w2, g.n)
    f1, f2 = canonical_form(w1, g, cfg), canonical_form(w2, g, cfg)
    equal = words_equal(f1, f2, g, cfg)
    c1, c2 = format_word(f1), format_word(f2)
    lines = [f"equal: {'yes' if equal else 'no'}",
             f"canonical w1: {c1}", f"canonical w2: {c2}"]
    return equal, {"equal": equal, "canonical_w1": c1, "canonical_w2": c2}, lines


def cmd_tup_check(args, g: GroupTable) -> tuple[bool, dict, list[str]]:
    cfg = _caps(args, g.n)
    check_product_length(args.max_len, cfg)
    print(f"building ground set (length <= {args.max_len})", file=sys.stderr)
    reps = canonical_ground_set(g, cfg, args.max_len)
    print(f"{len(reps)} canonical representatives", file=sys.stderr)
    summary, failure = run_tup_sweep(g, cfg, reps, args.max_size,
                                     limit=args.limit or None,
                                     progress=_progress("tup-check"))
    ok = failure is None
    verdict = "PASS" if ok else "FAIL"
    if summary["capped"]:
        verdict += f" over the first {summary['specs_checked']} pairs (--limit)"
    lines = [json.dumps(summary), f"tup-check: {verdict}"]
    details = dict(summary)
    if failure is not None:
        lines.append(f"failure: {failure}")
        details["failure"] = failure
    return ok, details, lines


def cmd_cancel_sample(args, g: GroupTable) -> tuple[bool, dict, list[str]]:
    rng = random.Random(args.seed)
    report = cancellation_report(g, _caps(args, g.n), args.trials,
                                 args.max_len, rng,
                                 progress=_progress("cancel-sample"))
    report["rng_digest"] = _rng_digest(rng)
    lines = [
        f"trials: {report['trials']}",
        f"antecedent hits: {report['antecedent_hits']}",
        "trials with a != b and the same letters: "
        f"{report['unequal_same_letters']}",
        f"violations: {len(report['violations'])}",
        f"cancel-sample: {'PASS' if report['passed'] else 'FAIL'}",
    ]
    return report["passed"], report, lines


def cmd_zero_divisor(args, g: GroupTable) -> tuple[bool, dict, list[str]]:
    rng = random.Random(args.seed)
    result = zero_divisor_search(g, _caps(args, g.n), p=args.p,
                                 trials=args.trials,
                                 max_support=args.max_support,
                                 max_len=args.max_len, rng=rng,
                                 progress=_progress("zero-divisor"))
    details = {"trials": args.trials, "found": None,
               "rng_digest": _rng_digest(rng),
               "certified_by_unique_top": result.certified,
               "multiplied_in_full": result.multiplied}
    counts = (f"certified by a unique top-grade product: {result.certified}"
              f", multiplied in full: {result.multiplied}")
    if result.found is None:
        lines = [f"no vanishing product in {args.trials} trials", counts,
                 "zero-divisor: PASS"]
        return True, details, lines
    x, y = result.found
    lines = [f"vanishing product found: ({x.to_text()}) * ({y.to_text()})",
             counts, "zero-divisor: FAIL"]
    details["found"] = {"trial": result.trial, "x": x.to_json(),
                        "y": y.to_json()}
    return False, details, lines


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """argv read in one pass: the namespace of `_build_parser().parse_args`,
    from the subcommand's own parser when argv starts with one; the top
    level handles only help and a missing or unknown command."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    return sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        g = generate_group(QuaternionConfig(args.k))
        passed, details, lines = args.run(args, g)
    except (QsemiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        params = {key: value for key, value in vars(args).items()
                  if key not in ("command", "run", "k", "format",
                                 "max_class_size", "max_word_length")}
        print(json.dumps({"command": args.command, "k": args.k,
                          "params": params, "passed": passed,
                          "details": details}))
    else:
        print("\n".join(lines))
    return 0 if passed else 1
