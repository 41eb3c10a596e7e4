"""
Exact arithmetic for words in the Artin generators of the braid group B_m.

A braid word on m strands is a sequence of nonzero integers: letter k > 0 is
the positive generator sigma_k (the counterclockwise half-twist of adjacent
strands k, k+1), and -k is its inverse.  Words multiply by concatenation and
are read left to right.  Free reduction (cancelling adjacent inverse pairs)
is applied eagerly by `compose` and friends so word lengths stay bounded in
long rewriting pipelines.

Conventions fixed once here and relied on everywhere else:

* The symmetric-group image composes like functions while reading the word
  left to right: sigma_1 sigma_2 in B_3 maps to the 3-cycle 1 -> 2 -> 3 -> 1.
  Equivalently, `permutation_of(w)(j)` is the fiber position where the strand
  ending at position j started.
* The band generator on strand interval [a, b] is the positive half-twist
  (sigma_{b-1} ... sigma_{a+1}) sigma_a (sigma_{b-1} ... sigma_{a+1})^-1;
  it has exponent sum 1 and permutation image the transposition (a b).
* The half-twist Delta on m strands is (sigma_1)(sigma_2 sigma_1) ...
  (sigma_{m-1} ... sigma_1); its square generates the center of B_m and has
  exponent sum m(m-1).

All types are immutable values; all operations are pure functions.
"""

from __future__ import annotations

import dataclasses
from itertools import chain, compress, count
from operator import add, ne
from typing import Callable, Iterable, Iterator, Sequence


class BraidError(ValueError):
    """Invalid braid data or incompatible operands."""


def _check_same_strands(w1: BraidWord, w2: BraidWord) -> None:
    if w1.strands != w2.strands:
        raise BraidError(
            f"strand-count mismatch: {w1.strands} vs {w2.strands}"
        )


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain.  Two nonzero letters
    cancel when they sum to 0, so one C-speed scan passes a reduced word."""
    word = tuple(letters)
    if 0 not in map(add, word, word[1:]):
        return word
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def prefix_walk(words: Sequence[tuple[int, ...]], start, extend: Callable) -> Iterator[tuple]:
    """(index, state after words[index]) for each word, in sorted order, from
    one depth-first walk of their prefix trie from `start`.  States are kept
    only at depths where a word resumes (at its C-speed common prefix with
    the one before); `extend(state, letters)` returns, without changing its
    argument, the state after one segment between them."""
    order = sorted(range(len(words)), key=words.__getitem__)
    ordered = [words[i] for i in order]
    starts = [0] + [next(compress(count(), map(ne, p, q)), min(len(p), len(q)))
                    for p, q in zip(ordered, ordered[1:])]
    resumed = set(starts)
    snapshots = [(0, start)]  # along the path of the word before
    for index, word, begin in zip(order, ordered, starts):
        while snapshots[-1][0] > begin:
            snapshots.pop()
        depth, state = snapshots[-1]
        for stop in filter(resumed.__contains__, range(depth + 1, len(word) + 1)):
            state = extend(state, word[depth:stop])
            depth = stop
            snapshots.append((depth, state))
        yield index, state if depth == len(word) else extend(state, word[depth:])


@dataclasses.dataclass(frozen=True)
class Permutation:
    """A bijection of {1..m}, stored as the tuple of images of 1, 2, ..., m.

    Composition follows ordinary function composition: (p * q)(x) = p(q(x)),
    i.e. the right operand acts first.  This matches the convention that
    `permutation_of` is a homomorphism on braid words read left to right.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.images)
        if sorted(self.images) != list(range(1, m + 1)):
            raise BraidError(f"not a permutation of 1..{m}: {self.images}")

    @staticmethod
    def identity(m: int) -> Permutation:
        return Permutation(tuple(range(1, m + 1)))

    @staticmethod
    def transposition(m: int, a: int, b: int) -> Permutation:
        if not (1 <= a < b <= m):
            raise BraidError(f"transposition ({a} {b}) out of range for m={m}")
        images = list(range(1, m + 1))
        images[a - 1], images[b - 1] = b, a
        return Permutation(tuple(images))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        if self.size != other.size:
            raise BraidError("permutation size mismatch")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.size
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths in decreasing order, fixed points included."""
        seen = [False] * self.size
        lengths = []
        for start in range(1, self.size + 1):
            if seen[start - 1]:
                continue
            n, j = 0, start
            while not seen[j - 1]:
                seen[j - 1] = True
                j = self.images[j - 1]
                n += 1
            lengths.append(n)
        return tuple(sorted(lengths, reverse=True))


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word in the generators of B_m; the empty word is the identity."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise BraidError(f"strand count must be positive, got {self.strands}")
        for letter in self.letters:
            if letter == 0 or abs(letter) >= self.strands:
                raise BraidError(
                    f"letter {letter} out of range for {self.strands} strands"
                )

    @staticmethod
    def identity(m: int) -> BraidWord:
        return BraidWord(m, ())

    def __len__(self) -> int:
        return len(self.letters)


def compose(*words: BraidWord) -> BraidWord:
    """Concatenate words left to right and freely reduce."""
    if not words:
        raise BraidError("compose needs at least one word")
    for w in words[1:]:
        _check_same_strands(words[0], w)
    letters = free_reduce(chain.from_iterable(w.letters for w in words))
    return BraidWord(words[0].strands, letters)


def invert(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands, tuple(-l for l in reversed(w.letters)))


def power(w: BraidWord, k: int) -> BraidWord:
    if k < 0:
        return power(invert(w), -k)
    return BraidWord(w.strands, free_reduce(w.letters * k))


def permutation_of(w: BraidWord) -> Permutation:
    """Image of w in the symmetric group; sigma_i maps to (i, i+1)."""
    images = list(range(1, w.strands + 1))
    for letter in w.letters:
        i = abs(letter)
        images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def exponent_sum(w: BraidWord) -> int:
    """Signed letter count: the abelianization, invariant under conjugation."""
    return sum(1 if l > 0 else -1 for l in w.letters)


@dataclasses.dataclass(frozen=True)
class HalfTwist:
    """The positive band half-twist exchanging strands low and high.

    As a word it is the band generator
    (sigma_{high-1} ... sigma_{low+1}) sigma_low (sigma_{high-1} ... sigma_{low+1})^-1,
    which carries strand `low` over the intermediate strands to `high`.
    """

    strands: int
    low: int
    high: int

    def __post_init__(self) -> None:
        if not (1 <= self.low < self.high <= self.strands):
            raise BraidError(
                f"half-twist endpoints ({self.low}, {self.high}) invalid "
                f"for {self.strands} strands"
            )


def half_twist_word(h: HalfTwist) -> BraidWord:
    tail = tuple(range(h.high - 1, h.low, -1))
    letters = tail + (h.low,) + tuple(-i for i in reversed(tail))
    return BraidWord(h.strands, letters)


def _delta_letters(m: int, low: int, high: int) -> tuple[int, ...]:
    if not (1 <= low <= high <= m):
        raise BraidError(f"block [{low}, {high}] invalid for {m} strands")
    letters: list[int] = []
    for j in range(low, high):
        letters.extend(range(j, low - 1, -1))
    return tuple(letters)


def delta_word(m: int, low: int = 1, high: int | None = None) -> BraidWord:
    """The half-twist Delta on the strand block [low, high] inside B_m.

    For the full block this is (sigma_1)(sigma_2 sigma_1)...(sigma_{m-1}...sigma_1);
    its permutation image reverses the block and its exponent sum is
    k(k-1)/2 for a block of k strands.
    """
    return BraidWord(m, _delta_letters(m, low, m if high is None else high))


def full_twist(m: int) -> BraidWord:
    """Delta^2, the generator of Center(B_m), with exponent sum m(m-1) and
    trivial permutation image."""
    if m < 2:
        raise BraidError("full twist needs at least 2 strands")
    letters = _delta_letters(m, 1, m)
    return BraidWord(m, letters + letters)
