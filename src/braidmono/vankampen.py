"""
Presentations of the complement's fundamental group from a factorization.

The complement of a plane curve whose braid monodromy factors beta_1..beta_n
multiply to the full twist has fundamental group generated by one loop x_i
per fiber point, modulo one relation per factor and moved generator: the
braid action of the factor fixes the loop.  `presentation` does not check
the product; the CLI does.  The braid group acts on the free group
F(x_1..x_m) on the right, with sigma_k acting by

    x_k |-> x_k x_{k+1} x_k^-1,   x_{k+1} |-> x_k,   others fixed,

extended letter by letter along a word.  Two structural checks pin the
orientation conventions: the action fixes the product x_1 x_2 ... x_m for
every braid word, and abelianizing the image of x_i yields x at position
pi^-1(i) for pi the word's permutation image.

The images of all m generators come from one pass over the word, read right
to left: the automorphism so far is composed with each letter's, which
rewrites only the images of x_k and x_{k+1}, as a b a^-1 or b^-1 a b of two
freely reduced images a and b.  Only the two junctions of such a product
can cancel, so a letter costs one interpreted step per cancelled letter
plus slicing, at C speed, linear in the two images.

`presentation` never passes over a factor's word c z c^-1 as a whole.
With phi the automorphism w |-> w.c^-1 and y = w.c, the factor's
fixed-loop relator at w is (w.(c z c^-1)) w^-1 = phi((y.z) y^-1), and y
runs over F with w.  So the core's relators (x_j.z) x_j^-1, with each x_k
replaced by x_k.c^-1, generate the same normal subgroup.  The images
x_k.c^-1 depend only on the prefix of the freely reduced c, so they come
from `braid.prefix_walk`, the prefix-trie walk that also fills the
factors' conjugator forms, where each resumes from the images at its
common prefix with the one before in sorted order.  A factorization costs
one letter step per trie edge and per letter of each distinct core, plus
one substitution per factor.  A sweep's conjugators extend one another,
so their trie is small: 119 edges for 7,140 conjugator letters on a
random 16-line arrangement.

Abelianization of a presentation is computed exactly: the Smith normal form
of the relators' exponent matrix over the integers gives the free rank and
the torsion coefficients.  Only the matrix's distinct nonzero rows enter,
and each elimination step pivots on an entry of least absolute value, so
the entries stay small.  A fixed-loop relator beta(x_i) x_i^-1 has exponent
vector e_j - e_i with j = pi^-1(i), so a van Kampen presentation gives few
distinct rows.
"""

from __future__ import annotations

import dataclasses
from itertools import chain
from operator import neg
from typing import Iterable

from .braid import BraidError, BraidWord, free_reduce, prefix_walk
from .factorization import Factorization, _core_key

# A letter step of the trie walk rewrites one image as a b a^-1 or b^-1 a b
# of two images, so a step at this length copies up to three times as many
# letters, a snapshot holds at most m times as many, and a core relator of
# L letters substitutes into at most L times as many.  Images grow
# exponentially along Hurwitz walks in B_4, so the walk stops here.
MAX_IMAGE_LETTERS = 100_000


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


def _conjugate(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a b a^-1 freely reduced, for freely reduced a and b.

    Only the two junctions can cancel: the tail of a against the head of b,
    then the tail of that product against the tail of a.  The loops run over
    the cancelled letters alone; the rest is sliced.
    """
    la, lb = len(a), len(b)
    stop = min(la, lb)
    t = 0
    while t < stop and a[la - 1 - t] == -b[t]:
        t += 1
    r = a[: la - t] + b[t:]
    lr = len(r)
    stop = min(lr, la)
    s = 0
    while s < stop and r[lr - 1 - s] == a[la - 1 - s]:
        s += 1
    return r[: lr - s] + tuple(map(neg, reversed(a[: la - s])))


def _conjugate_by(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """b^-1 a b freely reduced, for freely reduced a and b, cancelling only
    at the two junctions as `_conjugate` does."""
    la, lb = len(a), len(b)
    stop = min(la, lb)
    t = 0
    while t < stop and a[t] == b[t]:
        t += 1
    r = tuple(map(neg, reversed(b[t:]))) + a[t:]
    lr = len(r)
    stop = min(lr, lb)
    s = 0
    while s < stop and r[lr - 1 - s] == -b[s]:
        s += 1
    return r[: lr - s] + b[s:]


def _act(images: list[tuple[int, ...]], letters: Iterable[int]) -> None:
    """Compose the automorphism held in `images` with each letter's, in the
    order given; a right-to-left pass gives a word's letters reversed."""
    for letter in letters:
        if letter > 0:
            k = letter - 1
            a = images[k]
            images[k], images[k + 1] = _conjugate(a, images[k + 1]), a
        else:
            k = -letter - 1
            b = images[k + 1]
            images[k], images[k + 1] = b, _conjugate_by(images[k], b)


def artin_images(w: BraidWord) -> tuple[FreeWord, ...]:
    """Images of x_1..x_m under the right action of the braid word w, all
    from one right-to-left pass over the word (see the module docstring)."""
    images = [(i,) for i in range(1, w.strands + 1)]
    _act(images, reversed(w.letters))
    return tuple(map(FreeWord, images))


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
        if self.generator_count < 0:
            raise BraidError(
                f"generator count must not be negative, got {self.generator_count}"
            )
        # The distinct letters are checked at C speed; the loop names a bad one.
        used = set().union(*(rel.letters for rel in self.relators))
        if 0 in used or max(map(abs, used), default=0) > self.generator_count:
            for letter in chain.from_iterable(rel.letters for rel in self.relators):
                if not (1 <= abs(letter) <= self.generator_count):
                    raise BraidError(f"relator letter {letter} outside generators "
                                     f"1..{self.generator_count}")


def presentation(fact: Factorization) -> Presentation:
    """For every factor c z c^-1 and generator x_j its core z moves, the
    relator (x_j.z) x_j^-1 with each x_k replaced by x_k.c^-1, freely
    reduced, duplicates removed: by the module docstring they generate the
    normal subgroup of the factors' fixed-loop relators (x_i.beta) x_i^-1.

    They present the fundamental group of the curve complement only when
    `is_delta2_factorization(fact)` holds, which is not checked here: a
    core Z^e gives its van Kampen relation, a = b for e = 1, [a, b] for a
    node, aba = bab for a cusp and (ab)^2 = (ba)^2 for a tangency.
    """
    m = fact.strands

    def extend(images: list, letters: tuple[int, ...]) -> list:
        images = list(images)
        for x in letters:
            _act(images, (-x,))
            if max(len(images[abs(x) - 1]), len(images[abs(x)])) > MAX_IMAGE_LETTERS:
                raise BraidError(f"an image under a conjugator's inverse passed the cap "
                                 f"of {MAX_IMAGE_LETTERS} letters of van Kampen's walk")
        return images

    conjugators = [free_reduce(f.conjugator.letters) for f in fact.factors]
    core_relators = {}
    factor_relators = [()] * len(conjugators)
    for index, images in prefix_walk(conjugators, [(i,) for i in range(1, m + 1)], extend):
        key = _core_key(fact.factors[index])
        if key not in core_relators:
            core_relators[key] = [free_reduce(w.letters + (-i,)) for i, w in enumerate(
                artin_images(fact.factors[index].core_word()), 1) if w.letters != (i,)]
        factor_relators[index] = [free_reduce(chain.from_iterable(
            images[x - 1] if x > 0 else map(neg, reversed(images[-x - 1])) for x in r))
            for r in core_relators[key]]
    # dict keys keep the first-seen order
    unique = dict.fromkeys(chain.from_iterable(factor_relators))
    return Presentation(m, tuple(map(FreeWord, unique)))


def _smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of an integer matrix, as a
    divisibility chain, by least-pivot elimination on its distinct nonzero
    rows (duplicate and zero rows span nothing new).

    Each step moves an entry of least absolute value to the corner, then
    clears the corner's column by row operations and its row by column
    operations, with floor division.  A remainder left behind is a smaller
    entry, and the step repeats.  If the corner does not divide some entry
    left, that entry's row is added to the corner's and the step repeats.
    Otherwise the corner's absolute value is recorded and its row and
    column are dropped.
    """
    rows = [list(row) for row in dict.fromkeys(map(tuple, matrix)) if any(row)]
    diag: list[int] = []
    while rows:
        _, i, j = min((abs(v), i, j) for i, row in enumerate(rows)
                      for j, v in enumerate(row) if v)
        rows[0], rows[i] = rows[i], rows[0]
        for row in rows:
            row[0], row[j] = row[j], row[0]
        top = rows[0]
        p = top[0]
        for row in rows[1:]:
            q = row[0] // p
            row[:] = [a - q * b for a, b in zip(row, top)]
        for k in range(1, len(top)):
            q = top[k] // p
            for row in rows:
                row[k] -= q * row[0]
        if any(top[1:]) or any(row[0] for row in rows[1:]):
            continue
        stray = next((row for row in rows[1:] if any(v % p for v in row)), None)
        if stray is not None:
            top[:] = [a + b for a, b in zip(top, stray)]
            continue
        diag.append(abs(p))
        rows = [row[1:] for row in rows[1:] if any(row)]
    return diag


def abelianization_rank(pres: Presentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion coefficients) of the abelianized group: the
    generator count less the Smith diagonal's length, and the diagonal's
    entries above 1."""
    m = pres.generator_count
    diag = _smith_diagonal([rel.exponent_vector(m) for rel in pres.relators])
    return m - len(diag), tuple(d for d in diag if d > 1)
