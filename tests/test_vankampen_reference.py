"""The one-pass braid action against the letter-by-letter substitution it
replaced, and presentations against two references built on it.

Freely reduced words are unique, so the images must agree letter for
letter, and so must the relators of `presentation` and of a reference that
substitutes the images under c^-1 into each core's relators.  The old
presentation, the fixed-loop relators of each whole factor c z c^-1, gives
other relators for the same normal subgroup, so it is checked as a group:
random tuples in S_4 and S_5 satisfy both relator sets or neither, and the
abelianizations agree."""

import random
import warnings
from fractions import Fraction
from pathlib import Path

from braidmono import vankampen
from braidmono import (
    BraidWord,
    Factorization,
    FreeWord,
    HalfTwist,
    LineArrangement,
    Presentation,
    StructuredFactor,
    abelianization_rank,
    artin_images,
    braid_monodromy,
    delta_word,
    free_reduce,
    full_twist,
    hurwitz_move,
    hurwitz_move_inverse,
    invert,
    is_delta2_factorization,
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
    """The fixed-loop relators (x_i.beta) x_i^-1 of every whole factor beta."""
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


def substituted_reference(fact):
    """Each core's relators (x_j.z) x_j^-1 with x_k replaced by x_k.c^-1,
    the core and c^-1 acted on separately."""
    m = fact.strands
    relators = {}
    for factor in fact.factors:
        inverse = invert(factor.conjugator)
        images = {k: artin_action_reference(inverse, k) for k in range(1, m + 1)}
        core = factor.core_word()
        for j in range(1, m + 1):
            image = artin_action_reference(core, j)
            if image.letters == (j,):
                continue
            relator = _substitute_reference(image * FreeWord((-j,)), images)
            if relator.letters:
                relators.setdefault(relator.letters)
    return tuple(map(FreeWord, relators))


def _holds(relators, perms):
    """Do the permutations perms[k] for x_k (perms[-k] for its inverse)
    satisfy every relator?"""
    for relator in relators:
        image = perms[0]
        for letter in relator.letters:
            image = tuple(map(image.__getitem__, perms[letter]))
        if image != perms[0]:
            return False
    return True


def _permutation_tuples(m, rng):
    """12 tuples of m permutations in S_4 and 12 in S_5, as lists that hold
    the identity, the m permutations, then their inverses, so that index k
    and -k give x_k and its inverse.  Half are drawn from a pool of two
    permutations, so some satisfy relators that random tuples do not."""
    for n in (4, 5):
        for t in range(12):
            pool = [tuple(rng.sample(range(n), n)) for _ in range(2 if t % 2 else m)]
            perms = [tuple(range(n))] + [rng.choice(pool) for _ in range(m)]
            yield perms + [tuple(sorted(range(n), key=p.__getitem__)) for p in perms[:0:-1]]


def assert_same_action(w):
    images = artin_images(w)
    assert len(images) == w.strands
    for i, image in enumerate(images, 1):
        assert image == artin_action_reference(w, i), (w, i)


def assert_exact(fact):
    """`presentation` gives the substituted reference's relators letter for
    letter, and the group of the old fixed-loop relators: both hold on the
    same permutation tuples and abelianize alike.  Returns how many tuples
    satisfied them."""
    pres = presentation(fact)
    assert pres.generator_count == fact.strands
    assert pres.relators == substituted_reference(fact)
    assert all(r.letters for r in pres.relators)
    old = presentation_reference(fact)
    assert abelianization_rank(pres) == abelianization_rank(Presentation(fact.strands, old))
    satisfied = 0
    for perms in _permutation_tuples(fact.strands, random.Random(len(old))):
        holds = _holds(pres.relators, perms)
        assert holds == _holds(old, perms), perms
        satisfied += holds
    return satisfied


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
            assert_exact(braid_monodromy(arr))
            assert_exact(braid_monodromy(arr, expand_blocks=True))

    def test_pencil_blocks(self):
        arr = _pencil_arrangement()
        fact = braid_monodromy(arr)
        assert any(not isinstance(f, StructuredFactor) for f in fact.factors)
        assert_exact(fact)
        assert_exact(braid_monodromy(arr, expand_blocks=True))

    def test_node_regenerations(self, rng):
        for n in (3, 4, 5):
            arr = random_generic_arrangement(rng, n)
            assert_exact(regenerate(braid_monodromy(arr, expand_blocks=True)))

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
        assert not is_delta2_factorization(fact)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            pres = presentation(fact)
        assert record == []
        assert pres.relators
        assert_exact(fact)

    def test_reordered_factors(self, rng):
        # presentation walks the conjugators in sorted order; the relators
        # must still come in factor order with first-seen dedup
        for n in (3, 4, 5, 6):
            fact = braid_monodromy(random_generic_arrangement(rng, n))
            factors = list(fact.factors)
            rng.shuffle(factors)
            for order in (fact.factors[::-1], tuple(factors)):
                assert_exact(Factorization(fact.strands, order))

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
            assert_exact(Factorization(m, tuple(factors)))

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
            assert_exact(fact)

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
        assert_exact(fact)

    def test_duplicate_factors(self, rng):
        fact = braid_monodromy(_pencil_arrangement())
        doubled = Factorization(fact.strands, fact.factors + fact.factors[::2])
        assert_exact(doubled)
        arr = random_generic_arrangement(rng, 4)
        fact = regenerate(braid_monodromy(arr))
        assert_exact(Factorization(fact.strands, fact.factors * 2))

    def test_smallest_inputs(self):
        e = BraidWord.identity(2)
        assert_exact(Factorization(2, (StructuredFactor(e, HalfTwist(2, 1, 2), 1),)))
        assert_exact(Factorization(2, ()))
        assert_exact(Factorization(5, ()))

    def test_golden_corpus(self):
        # sweeps, regenerations, Hurwitz walks, a pencil and the tangent
        # family; some permutation tuples satisfy the relators, and some not
        golden = Path(__file__).parent / "golden"
        names = ["b3.fac", "b3walk.fac", "pencil.fac", "tangency.fac", "tangent12.fac",
                 "sweep4walk.fac", "sweep5walk.fac", "sweep16.fac"]
        names += [f"{kind}{n}.fac" for kind in ("sweep", "regen") for n in (3, 4, 5, 6)]
        satisfied = [assert_exact(parse_factorization((golden / name).read_text()))
                     for name in names]
        assert 0 < sum(satisfied) < 24 * len(satisfied)


def _walk_cost(fact):
    """Edges of the conjugators' prefix trie plus the letters of each
    distinct core."""
    conjugators = [free_reduce(f.conjugator.letters) for f in fact.factors]
    edges = {c[:d] for c in conjugators for d in range(1, len(c) + 1)}
    cores = {f.core_word().letters for f in fact.factors}
    return len(edges) + sum(map(len, cores))


def test_one_letter_step_per_trie_edge(rng, monkeypatch):
    # A walk that resumed from a snapshot shallower than its start, or
    # re-read a shared prefix, or a core read twice in one call, would read
    # more letters than this.
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
        presentation(fact)
        assert len(read) == _walk_cost(fact)
