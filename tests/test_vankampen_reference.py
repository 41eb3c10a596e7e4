"""The one-pass braid action against the letter-by-letter substitution it
replaced, and presentations against the loop that called it m times per
factor.  Freely reduced words are unique, so the images and the relators
must agree letter for letter."""

import warnings
from fractions import Fraction

from braidmono import vankampen
from braidmono import (
    BraidWord,
    Factorization,
    FreeWord,
    HalfTwist,
    LineArrangement,
    StructuredFactor,
    artin_images,
    braid_monodromy,
    delta_word,
    free_reduce,
    full_twist,
    hurwitz_move,
    hurwitz_move_inverse,
    invert,
    presentation,
    regenerate,
)
from braidmono.factorization import expand
from braidmono.textio import format_factorization, parse_factorization
from conftest import random_generic_arrangement, random_word, standard_b3_factorization


def _substitute_reference(word, images):
    out = []
    for letter in word.letters:
        image = images.get(abs(letter))
        if image is None:
            seq = (letter,)
        else:
            seq = image.letters if letter > 0 else image.inverse().letters
        for l in seq:
            if out and out[-1] == -l:
                out.pop()
            else:
                out.append(l)
    return FreeWord(tuple(out))


def artin_action_reference(w, i):
    current = FreeWord.generator(i)
    for letter in w.letters:
        k = abs(letter)
        if letter > 0:
            images = {k: FreeWord((k, k + 1, -k)), k + 1: FreeWord((k,))}
        else:
            images = {k: FreeWord((k + 1,)), k + 1: FreeWord((-(k + 1), k, k + 1))}
        current = _substitute_reference(current, images)
    return current


def presentation_reference(fact):
    m = fact.strands
    relators = []
    seen = set()
    for factor in fact.factors:
        word = expand(factor)
        for i in range(1, m + 1):
            image = artin_action_reference(word, i)
            if image.letters == (i,):
                continue
            relator = image * FreeWord((-i,))
            if relator.letters and relator.letters not in seen:
                seen.add(relator.letters)
                relators.append(relator)
    return tuple(relators)


def assert_same_action(w):
    images = artin_images(w)
    assert len(images) == w.strands
    for i, image in enumerate(images, 1):
        assert image == artin_action_reference(w, i), (w, i)


def assert_same_relators(fact):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pres = presentation(fact)
    assert pres.generator_count == fact.strands
    assert pres.relators == presentation_reference(fact)


class TestActionAgainstReference:
    def test_random_words(self, rng):
        for m in range(2, 9):
            for _ in range(8):
                assert_same_action(random_word(rng, m, 60))

    def test_unreduced_words(self, rng):
        # letters drawn freely, so the word itself may cancel, plus w w^-1
        # spelled without reduction
        for m in range(2, 9):
            for length in (0, 1, 2, 15, 30, 60):
                gens = [i for i in range(-(m - 1), m) if i != 0]
                w = BraidWord(m, tuple(rng.choice(gens) for _ in range(length)))
                assert_same_action(w)
                assert_same_action(BraidWord(m, w.letters + invert(w).letters))

    def test_half_and_full_twists(self):
        for m in range(2, 9):
            assert_same_action(delta_word(m))
            assert_same_action(full_twist(m))
            for low in range(1, m):
                for high in range(low + 1, m + 1):
                    assert_same_action(delta_word(m, low, high))


def _pencil_arrangement():
    pencil = [(Fraction(s), Fraction(0)) for s in range(1, 5)]
    pencil += [(Fraction(-1), Fraction(7)), (Fraction(-2), Fraction(-5, 2))]
    return LineArrangement.from_pairs(pencil)


class TestPresentationAgainstReference:
    def test_random_arrangements(self, rng):
        for k in range(25):
            arr = random_generic_arrangement(rng, 3 + k % 5)
            assert_same_relators(braid_monodromy(arr))
            assert_same_relators(braid_monodromy(arr, expand_blocks=True))

    def test_pencil_blocks(self):
        arr = _pencil_arrangement()
        fact = braid_monodromy(arr)
        assert any(not isinstance(f, StructuredFactor) for f in fact.factors)
        assert_same_relators(fact)
        assert_same_relators(braid_monodromy(arr, expand_blocks=True))

    def test_node_regenerations(self, rng):
        for n in (3, 4, 5):
            arr = random_generic_arrangement(rng, n)
            assert_same_relators(regenerate(braid_monodromy(arr, expand_blocks=True)))

    def test_cuspidal_exponents(self):
        e = BraidWord.identity(3)
        c = BraidWord(3, (1, -2))
        fact = Factorization(
            3,
            (
                StructuredFactor(e, HalfTwist(3, 1, 2), 3),
                StructuredFactor(c, HalfTwist(3, 2, 3), 4),
                StructuredFactor(e, HalfTwist(3, 1, 3), 1),
            ),
        )
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            pres = presentation(fact)
        assert [str(w.message) for w in record] == [
            "product is not the full twist; presentation is formal"
        ]
        assert pres.relators == presentation_reference(fact)
        assert pres.relators

    def test_reordered_factors(self, rng):
        # presentation walks the conjugators in sorted order; the relators
        # must still come in factor order with first-seen dedup
        for n in (3, 4, 5, 6):
            fact = braid_monodromy(random_generic_arrangement(rng, n))
            factors = list(fact.factors)
            rng.shuffle(factors)
            for order in (fact.factors[::-1], tuple(factors)):
                assert_same_relators(Factorization(fact.strands, order))

    def test_branching_conjugators(self, rng):
        # conjugators drawn as random prefixes of a few words plus a short
        # tail, so their trie branches at many depths and later conjugators
        # resume above where the one before them started
        for m in (3, 4):
            gens = [i for i in range(-(m - 1), m) if i != 0]
            stems = [tuple(rng.choice(gens) for _ in range(6)) for _ in range(3)]
            factors = []
            for _ in range(30):
                stem = rng.choice(stems)[: rng.randint(0, 6)]
                tail = tuple(rng.choice(gens) for _ in range(rng.randint(0, 2)))
                low = rng.randint(1, m - 1)
                base = HalfTwist(m, low, rng.randint(low + 1, m))
                factors.append(StructuredFactor(BraidWord(m, stem + tail), base, rng.randint(1, 2)))
            assert_same_relators(Factorization(m, tuple(factors)))

    def test_long_unshared_conjugators(self, rng):
        # Walks leave long conjugators that share little; the text round
        # trip drops the carried raw forms.  In B_4 the images grow
        # exponentially along a walk (past 200 letters after 15 moves), so
        # the sweep's walk is short.
        sweep = braid_monodromy(random_generic_arrangement(rng, 4))
        for fact, moves in ((standard_b3_factorization(), 150), (sweep, 12)):
            for _ in range(moves):
                k = rng.randint(1, len(fact.factors) - 1)
                fact = (hurwitz_move if rng.random() < 0.5 else hurwitz_move_inverse)(fact, k)
            fact = parse_factorization(format_factorization(fact))
            assert max(len(f.conjugator.letters) for f in fact.factors) > 20
            assert_same_relators(fact)

    def test_unreduced_and_empty_conjugators(self):
        fact = parse_factorization(
            "strands 4\nfactors 6\n"
            "conj= s1 S1 s2 ; base= 1 2 ; exp= 1\n"
            "conj= ; base= 2 3 ; exp= 2\n"
            "conj= s2 ; base= 3 4 ; exp= 1\n"
            "conj= s3 s2 S2 S3 s2 ; block= 1 3 ; exp= 2\n"
            "conj= ; base= 1 4 ; exp= 1\n"
            "conj= s1 S1 ; base= 1 2 ; exp= 1\n"
        )
        assert fact.factors[0].conjugator.letters == (1, -1, 2)
        assert_same_relators(fact)

    def test_duplicate_factors(self, rng):
        fact = braid_monodromy(_pencil_arrangement())
        doubled = Factorization(fact.strands, fact.factors + fact.factors[::2])
        assert_same_relators(doubled)
        arr = random_generic_arrangement(rng, 4)
        fact = regenerate(braid_monodromy(arr))
        assert_same_relators(Factorization(fact.strands, fact.factors * 2))

    def test_smallest_inputs(self):
        e = BraidWord.identity(2)
        assert_same_relators(Factorization(2, (StructuredFactor(e, HalfTwist(2, 1, 2), 1),)))
        assert_same_relators(Factorization(2, ()))
        assert_same_relators(Factorization(5, ()))



def _trie_cost(fact):
    """Edges of the conjugators' prefix trie plus the letters of every core
    and conjugator."""
    conjugators = [free_reduce(f.conjugator.letters) for f in fact.factors]
    edges = {c[:d] for c in conjugators for d in range(1, len(c) + 1)}
    return len(edges) + sum(len(f.core_word().letters) + len(c)
                            for f, c in zip(fact.factors, conjugators))


def test_one_letter_step_per_trie_edge(rng, monkeypatch):
    # A walk that resumed from a snapshot shallower than its start, or
    # re-read a shared prefix, would read more letters than this.
    read = []
    act = vankampen._act

    def counting(images, letters):
        letters = list(letters)
        read.extend(letters)
        act(images, letters)

    monkeypatch.setattr(vankampen, "_act", counting)
    facts = [standard_b3_factorization(), braid_monodromy(_pencil_arrangement())]
    for n in (3, 4, 5, 6):
        sweep = braid_monodromy(random_generic_arrangement(rng, n))
        facts += [sweep, regenerate(sweep),
                  Factorization(sweep.strands, sweep.factors[::-1] + sweep.factors[::2])]
    walk = facts[0]
    for _ in range(60):
        k = rng.randint(1, len(walk.factors) - 1)
        walk = (hurwitz_move if rng.random() < 0.5 else hurwitz_move_inverse)(walk, k)
    for fact in facts + [walk]:
        read.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            presentation(fact)
        assert len(read) == _trie_cost(fact)
