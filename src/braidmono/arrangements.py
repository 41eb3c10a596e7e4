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
is exact rational arithmetic; floating point never enters.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Iterable

from .braid import BraidError, BraidWord, HalfTwist, delta_word
from .factorization import BlockFactor, Factor, Factorization, StructuredFactor
from .factorization import _carrying, _conjugator_raws
from .garside import RAW_IDENTITY, _pid, _strip_ids, raw_inverse


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
    block-reversal events; this is all the monodromy computation consumes."""

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
    points: dict[tuple[Fraction, Fraction], set[int]] = {}
    for i in range(arr.m):
        a1, b1 = arr.lines[i]
        for j in range(i + 1, arr.m):
            a2, b2 = arr.lines[j]
            if a1 == a2:
                continue
            x = Fraction(b2 - b1, a1 - a2)
            y = a1 * x + b1
            points.setdefault((x, y), set()).update((i, j))

    order = _initial_order(arr)
    result: list[SingularPoint] = []
    for x, y in sorted(points):
        incident = points[(x, y)]
        positions = sorted(order.index(i) + 1 for i in incident)
        low, high = positions[0], positions[-1]
        if positions != list(range(low, high + 1)):
            raise ArrangementError(
                f"lines {sorted(incident)} do not occupy consecutive fiber "
                f"positions at x={x}; two same-x points overlap. "
                "Perturb one intercept by a small rational to separate them."
            )
        result.append(
            SingularPoint(
                x=x,
                y=y,
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
    unchanged; each node factor inherits the block factor's conjugator,
    with its raw forms.
    """
    if factor.exponent != 2:
        raise BraidError("only full twists (exponent 2) expand into nodes")
    conj = _conjugator_raws(factor)
    out = []
    for t in range(factor.low + 1, factor.high + 1):
        for s in range(factor.low, t):
            node = StructuredFactor(
                factor.conjugator, HalfTwist(factor.strands, s, t), exponent=2
            )
            out.append(_carrying(node, conj))
    return out


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
    wd = to_wiring_diagram(arr)
    # conj(idx) = conj(idx + 1) H_{idx+1}: each conjugator extends the one
    # of the next point by that point's block half-twist.  Two lines cross
    # at most once, so every conjugator is one permutation braid: its raw
    # form is the running order with each block reversed, as one factor.
    conjs: list[tuple[tuple[int, ...], tuple]] = [((), RAW_IDENTITY)]
    images = list(range(1, m + 1))
    for low, high in reversed(wd.events[1:]):
        images[low - 1 : high] = reversed(images[low - 1 : high])
        letters = conjs[-1][0] + delta_word(m, low, high).letters
        conjs.append((letters, _strip_ids([_pid(tuple(images))], m)))
    conjs.reverse()
    factors: list[Factor] = []
    for (low, high), (letters, raw) in zip(wd.events, conjs):
        conj = BraidWord(m, letters)
        if high == low + 1:
            factor = StructuredFactor(conj, HalfTwist(m, low, high), exponent=2)
        else:
            factor = BlockFactor(conj, low, high, exponent=2)
        _carrying(factor, (raw, raw_inverse(m, raw)))
        if expand_blocks and high > low + 1:
            factors.extend(expand_block_factor(factor))
        else:
            factors.append(factor)
    return Factorization(m, tuple(factors))


def degree_check(arr: LineArrangement) -> DegreeReport:
    """Compare the sum of local degrees k(k-1) with the full-twist degree
    m(m-1); every parallel pair accounts for exactly 2 of any deficit."""
    pts = singular_points(arr)
    achieved = sum(p.multiplicity * (p.multiplicity - 1) for p in pts)
    target = arr.m * (arr.m - 1)
    return DegreeReport(
        achieved=achieved,
        target=target,
        deficit=target - achieved,
        parallel_pairs=arr.parallel_pairs(),
    )
