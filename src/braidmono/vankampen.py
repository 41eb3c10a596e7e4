"""
Presentations of the complement's fundamental group from a factorization.

The complement of a plane curve with braid monodromy factors beta_1..beta_n
has fundamental group generated by one loop x_i per fiber point, modulo one
relation per factor and moved generator: the braid action of the factor
fixes the loop.  The braid group acts on the free group F(x_1..x_m) on the
right, with sigma_k acting by

    x_k |-> x_k x_{k+1} x_k^-1,   x_{k+1} |-> x_k,   others fixed,

extended letter by letter along a word.  Two structural checks pin the
orientation conventions: the action fixes the product x_1 x_2 ... x_m for
every braid word, and abelianizing the image of x_i yields x at position
pi^-1(i) for pi the word's permutation image.

The images of all m generators come from one pass over the word, read right
to left: the automorphism so far is composed with each letter's, which
rewrites only the images of x_k and x_{k+1} as freely reduced products.  A
letter costs time linear in those two images, and the pass holds the m
images and nothing else; `presentation` makes one pass per factor and keeps
nothing from one factor to the next.

Abelianization of a presentation is computed exactly: the relators' exponent
matrix over the integers is put in Smith normal form by elementary row and
column operations (arbitrary-precision arithmetic, no pivots lost), giving
the free rank and torsion coefficients.
"""

from __future__ import annotations

import dataclasses
import warnings
from itertools import chain

from .braid import BraidError, BraidWord, free_reduce
from .factorization import Factorization, expand, is_delta2_factorization


@dataclasses.dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in free generators x_1, x_2, ...; letter k > 0
    is x_k and -k is its inverse."""

    letters: tuple[int, ...]

    @staticmethod
    def generator(i: int) -> FreeWord:
        return FreeWord((i,))

    @staticmethod
    def reduce(letters) -> FreeWord:
        return FreeWord(free_reduce(letters))

    def inverse(self) -> FreeWord:
        return FreeWord(tuple(-l for l in reversed(self.letters)))

    def __mul__(self, other: FreeWord) -> FreeWord:
        return FreeWord.reduce(self.letters + other.letters)

    def exponent_vector(self, m: int) -> list[int]:
        vec = [0] * m
        for letter in self.letters:
            vec[abs(letter) - 1] += 1 if letter > 0 else -1
        return vec


def _images(w: BraidWord) -> list[tuple[int, ...]]:
    """Letters of the images of x_1..x_m under the right action of w, from
    one right-to-left pass (see the module docstring).  The products are
    reduced straight from iterators, so a letter leaves no temporary tuples
    behind."""
    images = [(i,) for i in range(1, w.strands + 1)]
    for letter in reversed(w.letters):
        k = abs(letter) - 1
        a, b = images[k], images[k + 1]
        if letter > 0:
            inv = (-l for l in reversed(a))
            images[k], images[k + 1] = free_reduce(chain(a, b, inv)), a
        else:
            inv = (-l for l in reversed(b))
            images[k], images[k + 1] = b, free_reduce(chain(inv, a, b))
    return images


def artin_images(w: BraidWord) -> tuple[FreeWord, ...]:
    """Images of x_1..x_m under the right action of the braid word w, all
    from one pass over the word."""
    return tuple(FreeWord(image) for image in _images(w))


def artin_action(w: BraidWord, i: int) -> FreeWord:
    """Image of x_i under the right action of the braid word w."""
    if not (1 <= i <= w.strands):
        raise BraidError(f"generator index {i} out of range 1..{w.strands}")
    return artin_images(w)[i - 1]


@dataclasses.dataclass(frozen=True)
class Presentation:
    """Finite presentation <x_1..x_generator_count | relators>."""

    generator_count: int
    relators: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        for rel in self.relators:
            for letter in rel.letters:
                if not (1 <= abs(letter) <= self.generator_count):
                    raise BraidError(
                        f"relator letter {letter} outside generators "
                        f"1..{self.generator_count}"
                    )


def presentation(fact: Factorization) -> Presentation:
    """Relators artin_action(beta, i) x_i^-1 for every factor beta and
    every generator i the factor moves, duplicates removed.

    For a full-twist factorization these relations present the fundamental
    group of the curve complement.  Inputs whose product is not the full
    twist, and cuspidal factors (exponent 3 and up, whose local relations
    classically take a different shape), are flagged with a warning but
    still processed with the generic fixed-loop relations.
    """
    m = fact.strands
    if not is_delta2_factorization(fact):
        warnings.warn(
            "product is not the full twist; presentation is formal",
            stacklevel=2,
        )
    if any(getattr(f, "exponent", 0) >= 3 for f in fact.factors):
        warnings.warn(
            "cuspidal factors present (exponent >= 3); emitting generic "
            "fixed-loop relations",
            stacklevel=2,
        )
    relators: list[FreeWord] = []
    seen = set()
    for factor in fact.factors:
        for i, image in enumerate(_images(expand(factor)), 1):
            if image == (i,):
                continue
            relator = FreeWord.reduce(image + (-i,))
            if relator.letters and relator.letters not in seen:
                seen.add(relator.letters)
                relators.append(relator)
    return Presentation(m, tuple(relators))


def _smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix, via exact
    elementary row/column operations with divisibility fix-up."""
    mat = [row[:] for row in matrix]
    rows = len(mat)
    cols = len(mat[0]) if mat else 0
    diag: list[int] = []
    r = 0
    while r < min(rows, cols):
        # find the nonzero pivot of least magnitude in the remaining block
        best = None
        for i in range(r, rows):
            for j in range(r, cols):
                v = mat[i][j]
                if v and (best is None or abs(v) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        mat[r], mat[bi] = mat[bi], mat[r]
        for row in mat:
            row[r], row[bj] = row[bj], row[r]
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, rows):
                if mat[i][r]:
                    q = mat[i][r] // mat[r][r]
                    for j in range(r, cols):
                        mat[i][j] -= q * mat[r][j]
                    if mat[i][r]:
                        mat[r], mat[i] = mat[i], mat[r]
                        changed = True
            for j in range(r + 1, cols):
                if mat[r][j]:
                    q = mat[r][j] // mat[r][r]
                    for i in range(r, rows):
                        mat[i][j] -= q * mat[i][r]
                    if mat[r][j]:
                        for row in mat:
                            row[r], row[j] = row[j], row[r]
                        changed = True
        pivot = abs(mat[r][r])
        # divisibility: pivot must divide every remaining entry
        fixed = False
        for i in range(r + 1, rows):
            for j in range(r + 1, cols):
                if mat[i][j] % pivot:
                    for jj in range(r, cols):
                        mat[r][jj] += mat[i][jj]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        diag.append(pivot)
        r += 1
    return diag


def abelianization_rank(pres: Presentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion coefficients) of the abelianized group, from the
    Smith normal form of the relator exponent matrix."""
    m = pres.generator_count
    matrix = [rel.exponent_vector(m) for rel in pres.relators]
    if not matrix:
        return m, ()
    diag = _smith_diagonal(matrix)
    nonzero = [d for d in diag if d != 0]
    torsion = tuple(d for d in nonzero if d > 1)
    return m - len(nonzero), torsion
