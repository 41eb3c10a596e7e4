"""Write the golden inputs and the records that tests/test_golden.py checks.

    PYTHONPATH=src python tests/golden/make_records.py

The arrangements and factorizations are drawn from fixed seeds; the bad
files, the braid words, the rules file and the tangency are written out
literally.  Each record line is `argv... exit-code sha256-of-stdout`, taken
by running `braidmono.cli.main` in this process; an argument that names a
file in this directory stands for that file.  Run this only to change the
records on purpose, and name the records that changed when you do.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction
from pathlib import Path

from braidmono import (
    BraidWord,
    Factorization,
    HalfTwist,
    LineArrangement,
    StructuredFactor,
    braid_monodromy,
    cli,
    hurwitz_move,
    hurwitz_move_inverse,
    regenerate,
    singular_points,
)
from braidmono.textio import format_arrangement, format_factorization

HERE = Path(__file__).parent
RECORDS = HERE / "records.txt"

# One file per parse error path, then two strand counts that no braid group has.
BAD = {
    "bad_conj.fac": "strands 3\nfactors 1\nconj= s7 ; base= 1 2 ; exp= 1\n",
    "bad_base.fac": "strands 3\nfactors 1\nconj= ; base= 1 ; exp= 1\n",
    "no_factors.fac": "strands 3\n",
    "bad_factors.fac": "strands 3\nfactors two\nconj= ; base= 1 2 ; exp= 1\n",
    "empty.fac": "",
    "bad_line.arr": "arrangement 2\nline 1 2\nline 3\n",
    "exponent.arr": "arrangement 2\nline 1e99999999 0\nline 0 1\n",
    "strands_neg.fac": "strands -1\nfactors 0\n",
    "strands_zero.fac": "strands 0\nfactors 0\n",
    "bad_token.word": "strands 3\ns1 x2\n",
    "long_index.word": "strands 3\ns" + "1" * 5000 + "\n",
    "unknown_rule.rules": "0 IV\n",
    "stray_index.rules": "6 pass\n",
    "repeated_index.rules": "0 I\n0 pass\n",
}

# Braid words, a rules file and a one-factor tangency, written out literally.
TEXT = {
    "braid_a.word": "strands 3\ns1 s2 s1\n",
    "braid_b.word": "strands 3\ns2 s1 s2\n",
    "braid_c.word": "strands 3\ns1 s2 s1 s1\n",
    "braid4.word": "strands 4\ns1 s2 s3\n",
    "b3pass.rules": "0 pass\n1 pass\n2 pass\n3 pass\n",
    "tangency.fac": "strands 2\nfactors 1\nconj= s1 ; base= 1 2 ; exp= 4\n",
}


def generic_lines(rng: random.Random, m: int) -> LineArrangement:
    """m lines with distinct slopes and only double points at distinct x."""
    while True:
        pairs = [(Fraction(rng.randint(-40, 40), rng.randint(1, 5)),
                  Fraction(rng.randint(-40, 40), rng.randint(1, 5)))
                 for _ in range(m)]
        if len({a for a, _ in pairs}) != m:
            continue
        arr = LineArrangement.from_pairs(pairs)
        points = singular_points(arr)
        if len(points) == m * (m - 1) // 2 and len({p.x for p in points}) == len(points):
            return arr


def walk(fact: Factorization, rng: random.Random, moves: int) -> Factorization:
    for _ in range(moves):
        k = rng.randint(1, len(fact.factors) - 1)
        fact = (hurwitz_move if rng.random() < 0.5 else hurwitz_move_inverse)(fact, k)
    return fact


def arrangements() -> dict[str, LineArrangement]:
    arrs = {f"lines{n}.arr": generic_lines(random.Random(f"golden/{n}"), n)
            for n in (3, 4, 5, 6, 16)}
    arrs["tangent12.arr"] = LineArrangement.from_pairs(
        [(Fraction(i), Fraction(i * i)) for i in range(1, 13)])
    pencil = [(Fraction(s), Fraction(0)) for s in (1, 2, 3)]
    pencil += [(Fraction(s, 2), Fraction(5)) for s in (-3, -1, 5, 7)]
    pencil += [(Fraction(-4), Fraction(-3, 2))]
    arrs["pencil.arr"] = LineArrangement.from_pairs(pencil)
    arrs["parallel.arr"] = LineArrangement.from_pairs(
        [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(3)),
         (Fraction(-2), Fraction(1)), (Fraction(1, 3), Fraction(-2))])
    return arrs


def inputs(arrs: dict[str, LineArrangement]) -> dict[str, Factorization]:
    facts = {}
    for n in (3, 4, 5, 6, 16):
        sweep = braid_monodromy(arrs[f"lines{n}.arr"])
        facts[f"sweep{n}.fac"] = sweep
        if n <= 6:  # the 16-line regeneration is a 448 KB file
            facts[f"regen{n}.fac"] = regenerate(sweep)
    e = BraidWord.identity(3)
    x1, x2 = HalfTwist(3, 1, 2), HalfTwist(3, 2, 3)
    b3 = Factorization(3, tuple(StructuredFactor(e, (x1, x2)[i % 2]) for i in range(6)))
    facts["b3.fac"] = b3
    facts["b3walk.fac"] = walk(b3, random.Random("golden/walk"), 40)
    facts["tangent12.fac"] = braid_monodromy(arrs["tangent12.arr"])
    facts["pencil.fac"] = braid_monodromy(arrs["pencil.arr"])
    return facts


def scrambles(facts: dict[str, Factorization]) -> dict[str, Factorization]:
    """A 4-line sweep after 10 random moves and a 5-line sweep after 6, for
    certificate searches that pin the search order.  Of the first twelve
    seeds, seed 6 gives both the largest search: 2,499 and 2,114 states."""
    return {f"sweep{n}walk.fac": walk(facts[f"sweep{n}.fac"],
                                      random.Random(f"golden/scramble{n}/6"), moves)
            for n, moves in ((4, 10), (5, 6))}


def commands(facts, arrs) -> list[list[str]]:
    runs = [[command, name]
            for command in ("vankampen", "check-delta2", "audit", "invariants")
            for name in facts]
    runs += [["hurwitz-equiv", "b3.fac", "b3walk.fac"],
             ["hurwitz-equiv", "b3.fac", "b3walk.fac", "--budget", "50"],
             ["hurwitz-equiv", "sweep3.fac", "regen3.fac"],
             ["orbit", "b3.fac", "--budget", "300"],
             ["orbit", "sweep4.fac", "--budget", "300"],
             ["hurwitz-equiv", "sweep4.fac", "sweep4walk.fac"],
             ["hurwitz-equiv", "sweep5.fac", "sweep5walk.fac"],
             ["orbit", "b3.fac", "--budget", "2000"]]
    for name in arrs:
        runs += [["monodromy", name], ["monodromy", name, "--expand-blocks"]]
    runs += [["normal-form", name] for name in TEXT if name.endswith(".word")]
    runs += [["equal", "braid_a.word", name] for name in ("braid_b.word", "braid_c.word", "braid4.word")]
    for name in ("sweep3.fac", "sweep4.fac"):
        runs += [["regenerate", name], ["regenerate", name, "--complete-deficit", "--budget", "1000"]]
    runs += [["regenerate", "tangency.fac"], ["regenerate", "tangency.fac", "--complete-deficit"],
             ["regenerate", "b3.fac", "--rules", "b3pass.rules"],
             ["regenerate", "b3.fac", "--rules", "b3pass.rules", "--complete-deficit", "--budget", "2000"]]
    for name in BAD:
        if name.endswith(".arr"):
            runs.append(["monodromy", name])
        elif name.endswith(".word"):
            runs += [["normal-form", name], ["equal", "braid_a.word", name]]
        elif name.endswith(".rules"):
            runs.append(["regenerate", "b3.fac", "--rules", name])
        elif name.startswith("strands_"):
            runs += [[command, name] for command in
                     ("vankampen", "check-delta2", "audit", "invariants")]
            runs.append(["hurwitz-equiv", name, name])
        else:
            runs.append(["check-delta2", name])
    return runs


def main() -> None:
    arrs = arrangements()
    facts = inputs(arrs)
    files = {**facts, **scrambles(facts)}
    for name, arr in arrs.items():
        (HERE / name).write_text(format_arrangement(arr), encoding="utf-8")
    for name, fact in files.items():
        (HERE / name).write_text(format_factorization(fact), encoding="utf-8")
    for name, text in {**BAD, **TEXT}.items():
        (HERE / name).write_text(text, encoding="utf-8")
    lines = []
    for argv in commands(facts, arrs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([str(HERE / a) if (HERE / a).is_file() else a for a in argv])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        lines.append(f"{' '.join(argv)} {code} {digest}\n")
    RECORDS.write_text("".join(lines), encoding="utf-8")


if __name__ == "__main__":
    main()
