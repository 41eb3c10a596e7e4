import random
from fractions import Fraction

import pytest

from braidmono import (
    ArrangementError,
    BraidWord,
    Factorization,
    HalfTwist,
    LineArrangement,
    StructuredFactor,
    free_reduce,
    singular_points,
)


def random_word(rng: random.Random, m: int, max_len: int = 40) -> BraidWord:
    letters = tuple(
        rng.choice([i for i in range(-(m - 1), m) if i != 0])
        for _ in range(rng.randint(0, max_len))
    )
    return BraidWord(m, free_reduce(letters))


def reduced_word(rng: random.Random, m: int, length: int) -> tuple[int, ...]:
    """The letters of a freely reduced word of exactly `length` letters in
    B_m, m >= 2."""
    letters: list[int] = []
    while len(letters) < length:
        x = rng.choice([i for i in range(1 - m, m) if i])
        if not letters or letters[-1] != -x:
            letters.append(x)
    return tuple(letters)


def trie_edges(words) -> int:
    """Edges of the words' prefix trie: their distinct nonempty prefixes."""
    return len({w[:d] for w in words for d in range(1, len(w) + 1)})


def random_generic_arrangement(rng: random.Random, m: int) -> LineArrangement:
    """m lines with pairwise distinct rational slopes, sweepable."""
    while True:
        slopes = rng.sample(range(-15, 16), m)
        lines = [
            (
                Fraction(s, rng.randint(1, 4)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 5)),
            )
            for s in slopes
        ]
        if len({a for a, _ in lines}) != m or len(set(lines)) != m:
            continue
        arr = LineArrangement(tuple(lines))
        try:
            singular_points(arr)
        except ArrangementError:
            continue
        return arr


def standard_b3_factorization() -> Factorization:
    """Six alternating adjacent half-twists in B_3; the product is the full
    twist (the running example BMF of a smooth plane cubic)."""
    e = BraidWord.identity(3)
    x1, x2 = HalfTwist(3, 1, 2), HalfTwist(3, 2, 3)
    return Factorization(
        3,
        tuple(
            StructuredFactor(e, x1 if i % 2 == 0 else x2, 1) for i in range(6)
        ),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xBA1D)


@pytest.fixture
def b3_factorization() -> Factorization:
    return standard_b3_factorization()
