"""
Command-line pipeline driver.

    braidmono normal-form WORD_FILE
    braidmono equal WORD_FILE WORD_FILE
    braidmono monodromy ARR_FILE [--expand-blocks]
    braidmono check-delta2 FAC_FILE
    braidmono hurwitz-equiv FAC_FILE FAC_FILE [--budget N]
    braidmono orbit FAC_FILE [--budget N]
    braidmono regenerate FAC_FILE [--rules FILE] [--complete-deficit]
                         [--budget N]
    braidmono audit FAC_FILE
    braidmono vankampen FAC_FILE
    braidmono invariants FAC_FILE

`-` reads the file from standard input (and every command writes to
standard output).  Exit status: 0 success / true / EQUIVALENT, 1 false /
NOT_EQUIVALENT, 2 INCONCLUSIVE (budget exhausted), 3 malformed input, a
usage error (a budget must be at least 1), a computation past one of the
library's size caps, or running out of memory; 141 (128 + SIGPIPE) when the
reader closes standard output early, with no message.  Output is
deterministic: identical inputs and flags give identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import factorization as fz
from . import regeneration as rg
from . import textio
from .arrangements import ArrangementError, braid_monodromy, degree_check
from .braid import BraidError
from .garside import normal_form, words_equal
from .vankampen import abelianization_rank, presentation


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_normal_form(args) -> int:
    nf = normal_form(textio.parse_braid_word(_read(args.word)))
    print(f"strands {nf.strands}")
    print(f"delta {nf.delta_power}")
    for p in nf.canonical_factors:
        print("factor " + " ".join(str(v) for v in p.images))
    return 0


def _cmd_equal(args) -> int:
    w1 = textio.parse_braid_word(_read(args.word1))
    w2 = textio.parse_braid_word(_read(args.word2))
    same = words_equal(w1, w2)
    print("true" if same else "false")
    return 0 if same else 1


def _cmd_monodromy(args) -> int:
    arr = textio.parse_arrangement(_read(args.arrangement))
    fact = braid_monodromy(arr, expand_blocks=args.expand_blocks)
    report = degree_check(arr)
    comments = [
        f"braid monodromy of {arr.m} lines, {len(fact.factors)} factors",
        f"degree {report.achieved} of {report.target}"
        + (f", deficit {report.deficit} (parallel lines)" if report.deficit else ""),
    ]
    sys.stdout.write(textio.format_factorization(fact, comments))
    return 0


def _cmd_check_delta2(args) -> int:
    fact = textio.parse_factorization(_read(args.factorization))
    good = fz.is_delta2_factorization(fact)
    print("true" if good else "false")
    return 0 if good else 1


def _cmd_hurwitz_equiv(args) -> int:
    f1 = textio.parse_factorization(_read(args.factorization1))
    f2 = textio.parse_factorization(_read(args.factorization2))
    res = fz.hurwitz_equivalent(f1, f2, budget=args.budget)
    print(f"verdict {res.verdict.value}")
    print(f"explored {res.explored}")
    if res.verdict is fz.Verdict.EQUIVALENT:
        print(f"moves {len(res.moves)}")
        for k, d in res.moves:
            print(f"move {k} {'forward' if d > 0 else 'inverse'}")
        return 0
    if res.verdict is fz.Verdict.NOT_EQUIVALENT:
        print(f"witness {res.witness}")
        return 1
    return 2


def _cmd_orbit(args) -> int:
    fact = textio.parse_factorization(_read(args.factorization))
    res = fz.orbit_enumerate(fact, budget=args.budget)
    print(f"orbit {len(res.keys)}")
    print(f"exhausted {'true' if res.exhausted else 'false'}")
    return 0 if res.exhausted else 2


def _cmd_regenerate(args) -> int:
    fact = textio.parse_factorization(_read(args.factorization))
    rules = textio.parse_rules(_read(args.rules)) if args.rules else None
    out = rg.regenerate(fact, rules)
    report = rg.degree_audit(out)
    comments = [
        f"regenerated from {fact.strands} strands into {out.strands}",
        rg.CONVENTION,
        f"audit achieved {report.achieved_degree} target {report.target_degree} "
        f"deficit {report.deficit}",
    ]
    if args.complete_deficit:
        res = rg.complete_deficit(out, budget=args.budget)
        if res.completed is not None:
            comments.append(f"deficit completed after trying {res.tried} placements")
            out = res.completed
        elif res.ruled_out:
            comments.append(
                "deficit completion impossible: the defect's Garside infimum is "
                f"below -{report.deficit}, so no {report.deficit} half-twists "
                "multiply to it; emitting uncompleted factors"
            )
        else:
            comments.append(
                "deficit completion "
                + ("exhausted all placements" if res.exhausted else "hit the budget")
                + f" after {res.tried} tries; emitting uncompleted factors"
            )
    sys.stdout.write(textio.format_factorization(out, comments))
    return 0


def _cmd_audit(args) -> int:
    fact = textio.parse_factorization(_read(args.factorization))
    report = rg.degree_audit(fact)
    print(f"achieved {report.achieved_degree}")
    print(f"target {report.target_degree}")
    print(f"deficit {report.deficit}")
    return 0


def _cmd_vankampen(args) -> int:
    fact = textio.parse_factorization(_read(args.factorization))
    pres = presentation(fact)
    if not fz.is_delta2_factorization(fact):
        print("# warning: product is not the full twist; presentation is formal")
    rank, torsion = abelianization_rank(pres)
    print(f"# abelianization rank {rank}"
          + (f" torsion {' '.join(map(str, torsion))}" if torsion else ""))
    sys.stdout.write(textio.format_presentation(pres))
    return 0


def _cmd_invariants(args) -> int:
    fact = textio.parse_factorization(_read(args.factorization))
    inv = fz.hm_invariants(fact)
    print(f"strands {fact.strands}")
    print(f"degree {fact.degree()}")
    nf = inv.product_nf
    print(f"product-delta {nf.delta_power}")
    print(f"product-factors {nf.canonical_length()}")
    for label in inv.class_multiset:
        kind, *rest = label
        cycles = rest[-1]
        head = " ".join(str(x) for x in rest[:-1])
        print(f"class {kind} {head} cycles {'-'.join(map(str, cycles))}")
    return 0


def _budget(text: str) -> int:
    try:
        value = textio._int(text, None, "--budget")
    except textio.ParseError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidmono",
        description="braid monodromy factorizations: compute, rewrite, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normal-form", help="left-greedy canonical form of a braid word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("equal", help="decide equality of two braid words")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("monodromy", help="braid monodromy of a line arrangement")
    p.add_argument("arrangement")
    p.add_argument("--expand-blocks", action="store_true")
    p.set_defaults(func=_cmd_monodromy)

    p = sub.add_parser("check-delta2", help="is the product the full twist?")
    p.add_argument("factorization")
    p.set_defaults(func=_cmd_check_delta2)

    p = sub.add_parser("hurwitz-equiv", help="bounded Hurwitz equivalence search")
    p.add_argument("factorization1")
    p.add_argument("factorization2")
    p.add_argument("--budget", type=_budget, default=1_000_000)
    p.set_defaults(func=_cmd_hurwitz_equiv)

    p = sub.add_parser("orbit", help="enumerate the Hurwitz orbit within a budget")
    p.add_argument("factorization")
    p.add_argument("--budget", type=_budget, default=1_000_000)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("regenerate", help="apply branch-curve regeneration rules")
    p.add_argument("factorization")
    p.add_argument("--rules", default=None, help="rule assignment file")
    p.add_argument("--complete-deficit", action="store_true")
    p.add_argument("--budget", type=_budget, default=10_000)
    p.set_defaults(func=_cmd_regenerate)

    p = sub.add_parser("audit", help="degree audit against the full twist")
    p.add_argument("factorization")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("vankampen", help="fundamental-group presentation")
    p.add_argument("factorization")
    p.set_defaults(func=_cmd_vankampen)

    p = sub.add_parser("invariants", help="Hurwitz-move invariants of a factorization")
    p.add_argument("factorization")
    p.set_defaults(func=_cmd_invariants)
    return parser


_parser = functools.cache(build_parser)  # built on main's first call; parse_args leaves it as is


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code:
                return 3  # argparse printed the usage; its own status 2 means INCONCLUSIVE here
            sys.stdout.flush()  # --help, on a closed pipe as a command below
            raise
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader closed stdout: end with no message
        with contextlib.suppress(AttributeError, OSError, ValueError):  # no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        return 141  # 128 + SIGPIPE
    except (textio.ParseError, ArrangementError, rg.RegenerationError, BraidError,
            OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # exit 1 would read as false / NOT_EQUIVALENT
        print("error: out of memory", file=sys.stderr)
        return 3
