#!/usr/bin/env python3
"""From a degenerate union of lines to branch-curve factors.

A surface degenerating to planes has a branch curve degenerating to lines;
the braid monodromy of the true branch curve is rebuilt from the lines by
local rules (strands double, each singularity is replaced by a cluster)
plus a global degree count that reveals what the local rules cannot see:
branch points near infinity.
"""

from braidmono import (
    BraidWord,
    Factorization,
    HalfTwist,
    LineArrangement,
    Rule,
    StructuredFactor,
    apply_rule,
    complete_deficit,
    braid_monodromy,
    degree_audit,
    is_delta2_factorization,
    regenerate,
)
from braidmono.textio import format_factorization

# The local rules on single factors: counts and degrees are forced.
e = BraidWord.identity(2)
for label, rule, exponent in (
    ("rule I : branch", Rule.BRANCH, 1),
    ("rule II: node  ", Rule.NODE, 2),
    ("rule III: tang.", Rule.TANGENCY, 4),
):
    factor = StructuredFactor(e, HalfTwist(2, 1, 2), exponent)
    print(label, "->", [(f.base.low, f.base.high, f.exponent) for f in apply_rule(rule, factor)])
print()

# Full pipeline on n generic lines: every crossing is a node, so rule II
# applies throughout and the degree bookkeeping has a closed form.
for n in (2, 3, 4, 5, 6):
    lines = [(s, (s * s) % 5) for s in range(1, n + 1)]
    arr = LineArrangement.from_pairs(lines)
    degenerate = braid_monodromy(arr, expand_blocks=True)
    regenerated = regenerate(degenerate)
    report = degree_audit(regenerated)
    print(
        f"n={n}: {len(degenerate.factors)} nodes -> "
        f"{len(regenerated.factors)} nodes upstairs, degree "
        f"{report.achieved_degree} of {report.target_degree}, "
        f"deficit {report.deficit} (= 2n branch points near infinity)"
    )
print()

# The regenerated 2-line example, in the interchange text format.
arr = LineArrangement.from_pairs([(1, 0), (-1, 0)])
regenerated = regenerate(braid_monodromy(arr))
print(format_factorization(regenerated, ["2 lines regenerated: 4 nodes in B_4"]))

# Deficit completion is a bounded search, not a theorem: given a
# factorization whose missing factors are plain half-twists, it finds them.
e3 = BraidWord.identity(3)
X1, X2 = HalfTwist(3, 1, 2), HalfTwist(3, 2, 3)
full = Factorization(3, tuple(StructuredFactor(e3, (X1, X2)[i % 2], 1) for i in range(6)))
partial = Factorization(3, full.factors[:4])
print("dropped two factors; deficit:", degree_audit(partial).deficit)
result = complete_deficit(partial, budget=5000)
if result.completed is not None:
    tail = [(f.base.low, f.base.high) for f in result.completed.factors[4:]]
    print(f"completion found after {result.tried} placements; appended bases {tail}")
    print("completed product is Delta^2:", is_delta2_factorization(result.completed))
else:
    print("no completion within budget; exhausted:", result.exhausted)
