"""Checks made apart from braidmono: a Burau oracle, exact intersection
counts and word pairs whose answer is known by construction.

Nothing here imports braidmono.  Factors are read only through their
documented fields (`conjugator.letters`, `base.low/high`, `low/high`,
`exponent`), and every word is spelled from the conventions in the
project README, so a wrong answer from the program cannot also make its
check pass.

The oracle is the unreduced Burau representation with t a fixed residue
modulo the prime 2^61 - 1, evaluated letter by letter on fixed random row
vectors (a Freivalds check of the matrix product): two braids whose Burau
matrices differ agree on one random vector with probability at most 1/p.
Burau is not faithful for five strands and more, so the oracle can only
miss a wrong product, never reject a right one.
"""

from __future__ import annotations

import random
from fractions import Fraction

P = (1 << 61) - 1
_rng = random.Random(20010105)
T = _rng.randrange(2, P - 1)
T_INV = pow(T, P - 2, P)
VECTORS = 2
_ROWS: dict[int, list[list[int]]] = {}


def _rows(m: int) -> list[list[int]]:
    rows = _ROWS.get(m)
    if rows is None:
        rng = random.Random(m * 7919)
        rows = [[rng.randrange(P) for _ in range(m)] for _ in range(VECTORS)]
        _ROWS[m] = rows
    return rows


def apply_letters(vectors: list[list[int]], letters) -> None:
    """Right-multiply each row vector by the Burau matrix of each letter.

    sigma_i acts on columns i, i+1 by [[1-t, t], [1, 0]], sigma_i^-1 by
    [[0, 1], [1/t, 1-1/t]]; all other columns stay fixed."""
    t, ti = T, T_INV
    for v in vectors:
        for letter in letters:
            if letter > 0:
                i = letter - 1
                a, b = v[i], v[i + 1]
                v[i] = (a * (1 - t) + b) % P
                v[i + 1] = a * t % P
            else:
                i = -letter - 1
                a, b = v[i], v[i + 1]
                v[i] = b * ti % P
                v[i + 1] = (a + b * (1 - ti)) % P


def band_letters(low: int, high: int) -> list[int]:
    """(s_{h-1}...s_{l+1}) s_l (s_{h-1}...s_{l+1})^-1, the band half-twist."""
    tail = list(range(high - 1, low, -1))
    return tail + [low] + [-k for k in reversed(tail)]


def block_letters(low: int, high: int) -> list[int]:
    """(s_l)(s_{l+1} s_l)...(s_{h-1}...s_l), the half-twist of a block."""
    out: list[int] = []
    for j in range(low, high):
        out.extend(range(j, low - 1, -1))
    return out


def factor_letters(factor) -> list[int]:
    """The word a factor stands for: conjugator, core^exponent, inverse."""
    if hasattr(factor, "base"):
        core = band_letters(factor.base.low, factor.base.high)
    else:
        core = block_letters(factor.low, factor.high)
    conj = list(factor.conjugator.letters)
    return conj + core * factor.exponent + [-x for x in reversed(conj)]


def full_twist_letters(m: int) -> list[int]:
    """(s_1 s_2 ... s_{m-1})^m, a spelling of Delta^2 the program never uses."""
    return list(range(1, m)) * m


def product_image(m: int, factors) -> list[list[int]]:
    vectors = [row[:] for row in _rows(m)]
    for f in factors:
        apply_letters(vectors, factor_letters(f))
    return vectors


def twist_image(m: int) -> list[list[int]]:
    vectors = [row[:] for row in _rows(m)]
    apply_letters(vectors, full_twist_letters(m))
    return vectors


def is_full_twist(m: int, factors) -> bool:
    """Does the left-to-right product of the factors equal Delta^2?"""
    return product_image(m, factors) == twist_image(m)


def words_agree(m: int, w1, w2) -> bool:
    a = [row[:] for row in _rows(m)]
    b = [row[:] for row in _rows(m)]
    apply_letters(a, w1)
    apply_letters(b, w2)
    return a == b


def self_test(b3_factors, drop_source) -> list[str]:
    """Show the oracle has teeth; returns the failures found (empty = fine).

    `b3_factors` is a Delta^2 factorization in B_3 whose first two factors
    have transposition images (1 2) and (2 3), which do not commute, so
    swapping them must change the product.  `drop_source` is any other
    Delta^2 factorization; removing a factor lowers the exponent sum, so
    the product can no longer be Delta^2."""
    problems = []
    if not words_agree(3, [1, 2, 1], [2, 1, 2]):
        problems.append("braid relation fails in the oracle")
    if words_agree(3, [1, 2], [2, 1]):
        problems.append("oracle cannot tell s1 s2 from s2 s1")
    if not is_full_twist(3, b3_factors):
        problems.append("oracle rejects the B_3 factorization")
    first, second = b3_factors[0], b3_factors[1]
    if first.conjugator.letters or second.conjugator.letters:
        problems.append("self-test factors must be unconjugated")
    elif len({first.base.low, first.base.high} & {second.base.low, second.base.high}) != 1:
        problems.append("self-test pair commutes; no swap check made")
    elif is_full_twist(3, [second, first] + list(b3_factors[2:])):
        problems.append("oracle accepts a swap of non-commuting factors")
    m, factors = drop_source
    if not is_full_twist(m, factors):
        problems.append("oracle rejects a sweep factorization")
    for k in (0, len(factors) // 2, len(factors) - 1):
        if is_full_twist(m, factors[:k] + factors[k + 1:]):
            problems.append(f"oracle accepts factor {k} dropped")
    return problems


# --- exact intersection counts ---------------------------------------------


def intersection_points(lines) -> dict[tuple[Fraction, Fraction], set[int]]:
    """Group pairwise crossings of y = a x + b by their exact point."""
    points: dict[tuple[Fraction, Fraction], set[int]] = {}
    for i, (a1, b1) in enumerate(lines):
        for j in range(i + 1, len(lines)):
            a2, b2 = lines[j]
            if a1 == a2:
                continue
            x = Fraction(b2 - b1) / (a1 - a2)
            points.setdefault((x, a1 * x + b1), set()).update((i, j))
    return points


def multiplicities(lines) -> list[int]:
    return sorted(len(s) for s in intersection_points(lines).values())


# --- word pairs with a known answer ----------------------------------------


def random_word(rng: random.Random, m: int, length: int) -> list[int]:
    """A freely reduced word: no letter is followed by its inverse."""
    out: list[int] = []
    while len(out) < length:
        k = rng.randint(1, m - 1) * rng.choice((1, -1))
        if out and out[-1] == -k:
            continue
        out.append(k)
    return out


def relator(rng: random.Random, m: int) -> list[int]:
    """A word equal to the identity: a braid relation, or a commutation
    of far-apart generators when m allows one, possibly inverted."""
    if m >= 4 and rng.random() < 0.5:
        i = rng.randint(1, m - 1)
        j = rng.choice([k for k in range(1, m) if abs(k - i) >= 2])
        word = [i, j, -i, -j]
    else:
        i = rng.randint(1, m - 2)
        word = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    if rng.random() < 0.5:
        word = [-x for x in reversed(word)]
    return word


def word_pair(rng: random.Random, m: int, length: int, equal: bool):
    """(w1, w2, answer): w2 is w1 with a relator inserted (equal), or with
    one letter's sign flipped, which moves the exponent sum by 2."""
    w1 = random_word(rng, m, length)
    w2 = list(w1)
    if equal:
        at = rng.randint(0, len(w2))
        w2[at:at] = relator(rng, m)
    else:
        at = rng.randrange(len(w2))
        w2[at] = -w2[at]
    return w1, w2, equal
