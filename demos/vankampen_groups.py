#!/usr/bin/env python3
"""Fundamental groups of complements, straight from the factorization.

Each factor acts on the free group on one loop per fiber point; the loops
it moves give relators.  Node factors commute loops, branch factors glue
them, and the abelianization (via exact Smith normal form) is a quick
fingerprint of the resulting group.
"""

from braidmono import (
    BraidWord,
    Factorization,
    HalfTwist,
    LineArrangement,
    StructuredFactor,
    abelianization_rank,
    artin_images,
    braid_monodromy,
    full_twist,
    presentation,
)
from braidmono.textio import format_presentation

# The action of a single generator, spelled out.
w = BraidWord(3, (1,))
print("sigma_1 acting on the free group F(x1, x2, x3):")
for i, image in enumerate(artin_images(w), 1):
    print(f"  x{i} ->", image.letters)
print()

# The full twist conjugates everything by the boundary loop x1 x2 x3.
ft = full_twist(3)
print("Delta^2 sends x2 to", artin_images(ft)[1].letters, "(global conjugation)")
print()

# Two crossing lines: one node, so the group is Z^2.
two = braid_monodromy(LineArrangement.from_pairs([(1, 0), (-1, 0)]))
pres = presentation(two)
print("two crossing lines:")
print(format_presentation(pres), end="")
print("  abelianization:", abelianization_rank(pres))
print()

# Generic arrangements keep rank m: all relators are commutators.
for m in (3, 4, 5):
    lines = [(s, (3 * s) % 7) for s in range(1, m + 1)]
    pres = presentation(braid_monodromy(LineArrangement.from_pairs(lines)))
    print(f"{m} generic lines: {len(pres.relators)} relators,",
          "abelianization", abelianization_rank(pres))
print()

# Branch points glue sheets together instead: the smooth-cubic tuple of six
# half-twists collapses the abelianization to a single Z.
e = BraidWord.identity(3)
X1, X2 = HalfTwist(3, 1, 2), HalfTwist(3, 2, 3)
cubic = Factorization(3, tuple(StructuredFactor(e, (X1, X2)[i % 2], 1) for i in range(6)))
pres = presentation(cubic)
print("six branch points (smooth cubic projection):")
print(format_presentation(pres), end="")
print("  abelianization:", abelianization_rank(pres))
