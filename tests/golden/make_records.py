"""Write the golden inputs and the records that tests/test_golden.py checks.

    PYTHONPATH=src python tests/golden/make_records.py

The inputs are drawn from fixed seeds.  Each record line is `command file
exit-code sha256-of-stdout`, taken by running `braidmono.cli.main` in this
process.  Run this only to change the records on purpose, and name the
records that changed when you do.
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
from braidmono.textio import format_factorization

HERE = Path(__file__).parent
RECORDS = HERE / "records.txt"


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


def inputs() -> dict[str, Factorization]:
    facts = {}
    for n in (3, 4, 5, 6, 16):
        sweep = braid_monodromy(generic_lines(random.Random(f"golden/{n}"), n))
        facts[f"sweep{n}.fac"] = sweep
        if n <= 6:  # the 16-line regeneration is a 448 KB file
            facts[f"regen{n}.fac"] = regenerate(sweep)
    e = BraidWord.identity(3)
    x1, x2 = HalfTwist(3, 1, 2), HalfTwist(3, 2, 3)
    b3 = Factorization(3, tuple(StructuredFactor(e, (x1, x2)[i % 2]) for i in range(6)))
    facts["b3.fac"] = b3
    facts["b3walk.fac"] = walk(b3, random.Random("golden/walk"), 40)
    facts["tangent12.fac"] = braid_monodromy(LineArrangement.from_pairs(
        [(Fraction(i), Fraction(i * i)) for i in range(1, 13)]))
    pencil = [(Fraction(s), Fraction(0)) for s in (1, 2, 3)]
    pencil += [(Fraction(s, 2), Fraction(5)) for s in (-3, -1, 5, 7)]
    pencil += [(Fraction(-4), Fraction(-3, 2))]
    facts["pencil.fac"] = braid_monodromy(LineArrangement.from_pairs(pencil))
    return facts


def main() -> None:
    lines = []
    for name, fact in inputs().items():
        (HERE / name).write_text(format_factorization(fact), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["vankampen", str(HERE / name)])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        lines.append(f"vankampen {name} {code} {digest}\n")
    RECORDS.write_text("".join(lines), encoding="utf-8")


if __name__ == "__main__":
    main()
