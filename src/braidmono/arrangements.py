"""
Braid monodromy of real line arrangements by a sweep of the x-axis.

An arrangement is a finite set of non-vertical affine lines y = a x + b with
exact rational coefficients.  Sweeping x from -infinity to +infinity, the m
intersection points of a vertical fiber with the arrangement change their
bottom-to-top order only at x-values where lines cross.  At such a singular
point the k incident lines occupy k consecutive fiber positions (a block)
just left of the crossing and emerge in reversed order.

With a base fiber far to the right of every crossing, each singular point
contributes one factor to a factorization of the full twist:

* the local contribution of a point with block [a, b] is the full twist of
  that block (for k = 2 this is the square of an adjacent half-twist, a
  node factor);
* transporting the local twist back to the base fiber conjugates it by one
  block half-twist per singular point crossed on the way, nearest first.

Factors are ordered leftmost point first, so that the left-to-right product
over all points equals Delta^2 exactly; that identity is the module's
master oracle and pins every orientation choice made above.  All geometry
is exact and runs in integers: each line becomes D y = A x + B, each
crossing a pair of reduced integer fractions, and points are ordered by
cross-multiplication; `Fraction`s are built only for the coordinates a
`SingularPoint` returns.  Floating point never enters.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import cmp_to_key, partial
from itertools import chain
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable

from .braid import BraidError, BraidWord, HalfTwist, delta_word
from .factorization import BlockFactor, Factor, Factorization, StructuredFactor
from .factorization import _conjugator_raw, _record
from .garside import raw_of_permutation


class ArrangementError(ValueError):
    """Arrangement is malformed or not sweepable."""


Rational = Fraction | int


@dataclasses.dataclass(frozen=True)
class LineArrangement:
    """Lines y = a x + b, stored as exact (slope, intercept) pairs."""

    lines: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if len(set(self.lines)) != len(self.lines):
            raise ArrangementError("duplicate lines in arrangement")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Rational, Rational]]) -> LineArrangement:
        return LineArrangement(
            tuple((Fraction(a), Fraction(b)) for a, b in pairs)
        )

    @property
    def m(self) -> int:
        return len(self.lines)

    def parallel_pairs(self) -> tuple[tuple[int, int], ...]:
        """Index pairs of parallel lines (their crossing escaped to infinity)."""
        out = []
        for i in range(self.m):
            for j in range(i + 1, self.m):
                if self.lines[i][0] == self.lines[j][0]:
                    out.append((i, j))
        return tuple(out)


@dataclasses.dataclass(frozen=True)
class SingularPoint:
    """A point where k >= 2 lines meet, with its sweep data."""

    x: Fraction
    y: Fraction
    line_indices: tuple[int, ...]
    block: tuple[int, int]  # fiber positions [low, high] just left of x
    multiplicity: int


@dataclasses.dataclass(frozen=True)
class WiringDiagram:
    """Initial bottom-to-top line order at x -> -infinity plus the ordered
    block-reversal events of the sweep."""

    strands: int
    initial_order: tuple[int, ...]
    events: tuple[tuple[int, int], ...]


@dataclasses.dataclass(frozen=True)
class DegreeReport:
    """Sum of local intersection degrees k(k-1) against the full-twist
    degree m(m-1); parallel pairs each leave a deficit of 2."""

    achieved: int
    target: int
    deficit: int
    parallel_pairs: tuple[tuple[int, int], ...]


def _initial_order(arr: LineArrangement) -> list[int]:
    # Bottom-to-top far left: steepest slope lowest; parallels by intercept.
    return sorted(range(arr.m), key=lambda i: (-arr.lines[i][0], arr.lines[i][1]))


def singular_points(arr: LineArrangement) -> list[SingularPoint]:
    """All pairwise intersections grouped into points, sorted by x (ties by
    y), with each point's fiber block computed by the exact sweep."""
    if arr.m < 2:
        raise ArrangementError("need at least 2 lines")
    # Line i as D y = A x + B in integers.  Two such lines meet at
    # x = (B D' - D B') / det, y = (A' B - A B') / det, det = D A' - A D'.
    rows = []
    for a, b in arr.lines:
        d = lcm(a.denominator, b.denominator)
        rows.append((a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d))
    points: dict[tuple[int, int, int, int], set[int]] = {}
    for i, (a1, b1, d1) in enumerate(rows):
        for j in range(i + 1, arr.m):
            a2, b2, d2 = rows[j]
            det = d1 * a2 - a1 * d2
            if not det:
                continue
            xn, yn = b1 * d2 - d1 * b2, a2 * b1 - a1 * b2
            if det < 0:
                det, xn, yn = -det, -xn, -yn
            g, h = gcd(xn, det), gcd(yn, det)
            points.setdefault((xn // g, det // g, yn // h, det // h), set()).update((i, j))

    order = _initial_order(arr)
    result: list[SingularPoint] = []
    # (x, y) order by cross-multiplication: the denominators are positive
    by_xy = cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1] or p[2] * q[3] - q[2] * p[3])
    for key in sorted(points, key=by_xy):
        incident = points[key]
        # A point's lines are adjacent in the fiber just left of it, so
        # their extreme positions bound its block.
        positions = [order.index(i) + 1 for i in incident]
        low, high = min(positions), max(positions)
        result.append(
            SingularPoint(
                x=Fraction(key[0], key[1]),
                y=Fraction(key[2], key[3]),
                line_indices=tuple(sorted(incident)),
                block=(low, high),
                multiplicity=len(incident),
            )
        )
        order[low - 1 : high] = reversed(order[low - 1 : high])
    return result


def to_wiring_diagram(arr: LineArrangement) -> WiringDiagram:
    pts = singular_points(arr)
    return WiringDiagram(
        strands=arr.m,
        initial_order=tuple(_initial_order(arr)),
        events=tuple(p.block for p in pts),
    )


def expand_block_factor(factor: BlockFactor) -> list[StructuredFactor]:
    """Rewrite a full block twist as its k(k-1)/2 node factors.

    Inside the block [a, b], Delta<a..b>^2 equals the left-to-right product
    of the squared band half-twists Z_{s,t}^2 over pairs a <= s < t <= b,
    taken with t ascending and s ascending within t.  The identity is exact
    in the subgroup, so the expansion leaves any surrounding product
    unchanged; each node factor inherits the block factor's conjugator: its
    raw form, and on first read the block's word, one object for all nodes.
    """
    if factor.exponent != 2:
        raise BraidError("only full twists (exponent 2) expand into nodes")
    m, raw, spelling = factor.strands, _conjugator_raw(factor), (attrgetter("conjugator"), factor)
    return [
        _record(StructuredFactor, m, raw, spelling, {"base": HalfTwist(m, s, t), "exponent": 2})
        for t in range(factor.low + 1, factor.high + 1)
        for s in range(factor.low, t)
    ]


def _prefix_word(m: int, deltas: list[tuple[int, ...]], n: int) -> BraidWord:
    """The first n block half-twists of a sweep, concatenated."""
    return BraidWord(m, tuple(chain.from_iterable(deltas[:n])))


def braid_monodromy(arr: LineArrangement, expand_blocks: bool = False) -> Factorization:
    """The braid monodromy factorization of the arrangement.

    One factor per singular point, leftmost point first.  A point with
    block [a, b] contributes the full twist of its block, conjugated by the
    block half-twists of every point strictly between it and the base fiber
    (which sits right of all crossings), nearest point rightmost in the
    conjugator word.  For an arrangement without parallel lines the product
    is Delta^2; parallels leave a degree deficit (see `degree_check`).

    `expand_blocks` replaces each multiple-point factor (k > 2) by its
    k(k-1)/2 node factors.
    """
    m = arr.m
    if m < 2:
        raise ArrangementError("need at least 2 lines")
    # One pass from the base fiber leftwards, by conj(i) = conj(i+1) H_{i+1}:
    # each conjugator extends the one of the point to its right by that
    # point's block half-twist.  Two lines cross at most once, so every
    # conjugator is one permutation braid, of the running order with each
    # block reversed.  Its word, the block half-twists of the n points to
    # its right, is spelled only when read, as `prefix(n)` of the sweep's
    # one `prefix`.
    deltas: list[tuple[int, ...]] = []
    prefix = partial(_prefix_word, m, deltas)
    images = list(range(1, m + 1))
    records: list[Factor] = []
    for p in reversed(singular_points(arr)):
        low, high = p.block
        raw, spelling = raw_of_permutation(m, images), (prefix, len(deltas))
        if high == low + 1:
            records.append(_record(StructuredFactor, m, raw, spelling,
                                   {"base": HalfTwist(m, low, high), "exponent": 2}))
        else:
            block = _record(BlockFactor, m, raw, spelling,
                            {"low": low, "high": high, "exponent": 2})
            records.extend(reversed(expand_block_factor(block)) if expand_blocks else [block])
        deltas.append(delta_word(m, low, high).letters)
        images[low - 1 : high] = reversed(images[low - 1 : high])
    return Factorization(m, tuple(reversed(records)))


def degree_check(arr: LineArrangement) -> DegreeReport:
    """Compare the sum of local degrees k(k-1) with the full-twist degree
    m(m-1).  Every pair of non-parallel lines meets in exactly one point,
    so the sum is m(m-1) less 2 per parallel pair, with no sweep."""
    if arr.m < 2:
        raise ArrangementError("need at least 2 lines")
    parallel = arr.parallel_pairs()
    target = arr.m * (arr.m - 1)
    deficit = 2 * len(parallel)
    return DegreeReport(target - deficit, target, deficit, parallel)
