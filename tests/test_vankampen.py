import itertools
import math
import signal
import warnings
from pathlib import Path

import pytest

import braidmono.factorization as fz
import braidmono.vankampen as vk
from braidmono import (
    BlockFactor,
    BraidError,
    BraidWord,
    Factorization,
    FreeWord,
    HalfTwist,
    LineArrangement,
    Presentation,
    StructuredFactor,
    abelianization_rank,
    artin_action,
    artin_images,
    braid_monodromy,
    compose,
    free_reduce,
    full_twist,
    hurwitz_move,
    invert,
    is_delta2_factorization,
    permutation_of,
    presentation,
)
from braidmono.textio import parse_factorization
from braidmono.vankampen import _conjugate, _conjugate_by, _smith_diagonal
from conftest import random_generic_arrangement, random_word, standard_b3_factorization

GOLDEN = Path(__file__).resolve().parent / "golden"


class TestArtinAction:
    def test_generator_formula(self):
        assert artin_action(BraidWord(2, (1,)), 1).letters == (1, 2, -1)
        assert artin_action(BraidWord(2, (1,)), 2).letters == (1,)
        assert artin_action(BraidWord(3, ()), 2).letters == (2,)

    def test_inverse_formula(self):
        assert artin_action(BraidWord(2, (-1,)), 1).letters == (2,)
        assert artin_action(BraidWord(2, (-1,)), 2).letters == (-2, 1, 2)

    def test_action_respects_inverses(self, rng):
        for _ in range(100):
            m = rng.randint(2, 5)
            w = random_word(rng, m, 15)
            ww = compose(w, invert(w))
            for i in range(1, m + 1):
                assert artin_action(ww, i).letters == (i,)

    def test_product_fixity(self, rng):
        for _ in range(300):
            m = rng.randint(2, 5)
            w = random_word(rng, m, 25)
            total = FreeWord(())
            for i in range(1, m + 1):
                total = total * artin_action(w, i)
            assert total.letters == tuple(range(1, m + 1))

    def test_permutation_shadow(self, rng):
        # abelianized image of x_i is x at position pi^-1(i)
        for _ in range(200):
            m = rng.randint(2, 5)
            w = random_word(rng, m, 25)
            shadow = permutation_of(w).inverse()
            for i in range(1, m + 1):
                vec = artin_action(w, i).exponent_vector(m)
                want = [0] * m
                want[shadow(i) - 1] = 1
                assert vec == want

    def test_images_are_the_actions(self, rng):
        assert artin_images(BraidWord(4, ())) == tuple(FreeWord((i,)) for i in range(1, 5))
        for _ in range(50):
            m = rng.randint(2, 6)
            w = random_word(rng, m, 20)
            assert artin_images(w) == tuple(artin_action(w, i) for i in range(1, m + 1))

    def test_index_out_of_range(self):
        from braidmono import BraidError

        with pytest.raises(BraidError):
            artin_action(BraidWord(3, (1,)), 4)


def _free_inverse(w):
    return tuple(-l for l in reversed(w))


def _junction_pairs(rng):
    """Freely reduced pairs (a, b) that share a random piece u at the
    junctions, so a b and b^-1 a cancel anywhere from nothing to all of a
    or b, plus the edge cases: empty operands, w with w^-1 and w with w."""
    def word(length):
        return free_reduce(rng.choice((1, 2, 3, -1, -2, -3)) for _ in range(length))

    pairs = []
    for _ in range(400):
        u, v, w = word(rng.randint(0, 8)), word(rng.randint(0, 8)), word(rng.randint(0, 8))
        a = free_reduce(v + u)
        pairs += [(a, free_reduce(_free_inverse(u) + w)), (a, free_reduce(v + w))]
    for w in (word(9) for _ in range(20)):
        for x, y in ((w, _free_inverse(w)), (w, w), (w, ()), ((), w), ((), ())):
            pairs += [(x, y), (y, x)]
    return pairs


class TestJunctionSteps:
    """The action's two steps join freely reduced words and cancel only at
    the junctions; they must give free_reduce's answer on every pair."""

    def test_conjugate(self, rng):
        for a, b in _junction_pairs(rng):
            assert _conjugate(a, b) == free_reduce(a + b + _free_inverse(a)), (a, b)

    def test_conjugate_by(self, rng):
        for a, b in _junction_pairs(rng):
            assert _conjugate_by(a, b) == free_reduce(_free_inverse(b) + a + b), (a, b)

    def test_pairs_cancel_whole_operands(self, rng):
        pairs = _junction_pairs(rng)
        assert any(a and b and not free_reduce(a + b) for a, b in pairs)
        assert any(len(a) > len(b) > 0 and free_reduce(a + b) == a[: len(a) - len(b)]
                   for a, b in pairs)
        assert any(len(b) > len(a) > 0 and free_reduce(a + b) == b[len(a):]
                   for a, b in pairs)


class TestPresentation:
    def test_two_line_commutator(self):
        arr_fact = braid_monodromy(
            __import__("braidmono").LineArrangement.from_pairs([(1, 0), (-1, 0)])
        )
        pres = presentation(arr_fact)
        assert pres.generator_count == 2
        # every relator abelianizes to zero: commutator relations
        assert all(
            rel.exponent_vector(2) == [0, 0] for rel in pres.relators
        )
        assert abelianization_rank(pres) == (2, ())

    def test_full_twist_central_product(self):
        ft = full_twist(3)
        c = FreeWord((1, 2, 3))
        for i in (1, 2, 3):
            assert artin_action(ft, i) == c * FreeWord((i,)) * c.inverse()

    def test_empty_factorization_is_free(self):
        pres = presentation(Factorization(4))
        assert pres.relators == ()
        assert abelianization_rank(pres) == (4, ())

    def test_one_core_word_per_distinct_core(self, monkeypatch):
        """A core's relators are built from its word once, however many
        factors share that core."""
        calls = []

        def counting(core_word):
            return lambda factor: calls.append(fz._core_key(factor)) or core_word(factor)

        for kind in (StructuredFactor, BlockFactor):
            monkeypatch.setattr(kind, "core_word", counting(kind.core_word))
        pencil = LineArrangement.from_pairs([(s, 0) for s in range(1, 5)] + [(-1, 7)])
        tangent = LineArrangement.from_pairs([(i, i * i) for i in range(10)])
        facts = [braid_monodromy(pencil), braid_monodromy(pencil, expand_blocks=True),
                 braid_monodromy(tangent)]
        assert any(isinstance(f, BlockFactor) for f in facts[0].factors)
        for fact in facts:
            cores = {fz._core_key(f) for f in fact.factors}
            calls.clear()
            presentation(fact)
            assert sorted(calls) == sorted(cores)
        assert len(cores) < len(fact.factors) / 4

    def test_sweep16_steps_each_trie_edge_once(self, monkeypatch):
        """The conjugators' inverses are walked as one prefix trie: one
        letter step per trie edge, 119 for 7,140 conjugator letters, plus
        the letters of each distinct core's word."""
        steps = []

        def counting(images, letters):
            letters = tuple(letters)
            steps.append(len(letters))
            act(images, letters)

        act = vk._act
        fact = parse_factorization((GOLDEN / "sweep16.fac").read_text())
        cores = {fz._core_key(f): len(f.core_word()) for f in fact.factors}
        monkeypatch.setattr(vk, "_act", counting)
        presentation(fact)
        assert sum(steps) - sum(cores.values()) == 119

    def test_image_cap_fires_on_the_letter_that_passes_it(self, monkeypatch):
        conj = (1, 2, 1, -2, 1, 1, 2, 2, -1, 2, 1, 1)
        images, lengths = [(1,), (2,), (3,)], []
        for x in conj:
            vk._act(images, (-x,))
            lengths.append(max(map(len, images)))
        cap = 9
        first = next(i for i, n in enumerate(lengths) if n > cap)
        assert 0 < first < len(conj) - 1
        steps = []
        act = vk._act
        monkeypatch.setattr(vk, "_act", lambda im, ls: steps.append(1) or act(im, ls))
        monkeypatch.setattr(vk, "MAX_IMAGE_LETTERS", cap)
        fact = Factorization(3, (StructuredFactor(BraidWord(3, conj), HalfTwist(3, 1, 2), 1),))
        with pytest.raises(BraidError, match="passed the cap of 9 letters"):
            presentation(fact)
        assert len(steps) == first + 1

    def test_warns_on_non_delta2(self):
        """The library leaves the product to its caller: a factorization
        that is not of the full twist gets its relators and no warning (the
        CLI prints the note, see `test_cli.py`)."""
        F = Factorization(2, (StructuredFactor(BraidWord.identity(2), HalfTwist(2, 1, 2), 1),))
        assert not is_delta2_factorization(F)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert presentation(F).relators
        assert record == []

    def test_no_cusp_warning(self):
        """A cusp factor's fixed-loop relators are its van Kampen relation
        (see `test_fixed_loop_relators_are_the_local_relations`), so nothing
        about the cusp is flagged, and the product is not checked here."""
        F = Factorization(
            2,
            (
                StructuredFactor(BraidWord.identity(2), HalfTwist(2, 1, 2), 3),
                StructuredFactor(BraidWord.identity(2), HalfTwist(2, 1, 2), 1),
            ),
        )
        assert not is_delta2_factorization(F)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            presentation(F)
        assert record == []

    def test_generic_arrangement_abelianization(self, rng):
        for m in range(2, 7):
            arr = random_generic_arrangement(rng, m)
            pres = presentation(braid_monodromy(arr))
            assert abelianization_rank(pres) == (m, ())

    def test_hurwitz_move_invariance(self, rng):
        F = standard_b3_factorization()
        base = abelianization_rank(presentation(F))
        G = F
        for _ in range(8):
            G = hurwitz_move(G, rng.randint(1, 5))
            assert abelianization_rank(presentation(G)) == base

    def test_relator_letters_validated(self):
        with pytest.raises(Exception):
            Presentation(2, (FreeWord((3,)),))

    @pytest.mark.parametrize("relators, letter", [
        (((1, -2), (2, 3, -5), (0,)), 3),
        (((1, 2), (-1, 0, 3)), 0),
        (((2, -3, 1),), -3),
    ])
    def test_error_names_the_first_bad_letter(self, relators, letter):
        message = rf"^relator letter {letter} outside generators 1\.\.2$"
        with pytest.raises(BraidError, match=message):
            Presentation(2, tuple(map(FreeWord, relators)))

    def test_generator_count_not_negative(self):
        with pytest.raises(BraidError, match="generator count must not be negative, got -1"):
            Presentation(-1, ())
        assert abelianization_rank(Presentation(0, ())) == (0, ())


class TestSmith:
    def test_free(self):
        assert abelianization_rank(Presentation(4, ())) == (4, ())

    def test_kill_generator(self):
        assert abelianization_rank(Presentation(4, (FreeWord((1,)),))) == (3, ())

    def test_torsion(self):
        assert abelianization_rank(Presentation(2, (FreeWord((1, 1)),))) == (1, (2,))

    def test_known_matrix(self):
        # classical worked example whose Smith form is diag(1, 10, 30)
        assert _smith_diagonal([[12, 6, 4], [3, 9, 6], [2, 16, 14]]) == [1, 10, 30]

    def test_two_by_two(self):
        assert _smith_diagonal([[2, 4], [6, 8]]) == [2, 4]

    def test_rank_deficient(self):
        assert _smith_diagonal([[1, 2], [2, 4]]) == [1]

    def test_zero_matrix(self):
        assert _smith_diagonal([[0, 0], [0, 0]]) == []

    def test_negative_entries(self):
        assert _smith_diagonal([[-2, 0], [0, -3]]) == [1, 6]

    def test_divisibility_chain(self, rng):
        for size in (4, 8, 12):
            for _ in range(50):
                rows = rng.randint(1, size)
                cols = rng.randint(1, size)
                mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
                diag = _smith_diagonal([row[:] for row in mat])
                for a, b in zip(diag, diag[1:]):
                    assert b % a == 0

    def test_determinantal_divisors(self, rng):
        """s_k = d_k / d_(k-1), with d_k the gcd of the k x k minors, on
        small matrices with zero rows, repeated rows and negative entries."""
        for _ in range(600):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            mat = [[rng.choice((0, rng.randint(-12, 12))) for _ in range(cols)]
                   for _ in range(rows)]
            if rng.random() < 0.3:
                mat[rng.randrange(rows)] = list(mat[0])
            if rng.random() < 0.2:
                mat[rng.randrange(rows)] = [0] * cols
            assert _smith_diagonal([row[:] for row in mat]) == _invariant_factors(mat)

    def test_scrambled_chain(self, rng):
        """A chosen chain d_1 | d_2 | ... on the diagonal, scrambled by random
        unimodular row and column operations, comes back unchanged."""
        for _ in range(60):
            rows, cols = rng.randint(1, 12), rng.randint(1, 10)
            chain, d = [], 1
            for _ in range(rng.randint(0, min(rows, cols))):
                d *= rng.choice((1, 1, 2, 3, 5))
                chain.append(d)
            mat = [[chain[i] if i == j and i < len(chain) else 0 for j in range(cols)]
                   for i in range(rows)]
            for _ in range(40):
                _unimodular_step(rng, mat)
                transposed = [list(col) for col in zip(*mat)]
                _unimodular_step(rng, transposed)
                mat = [list(row) for row in zip(*transposed)]
            assert _smith_diagonal(mat) == chain

    def test_dense_matrix_in_bounded_time(self):
        """A dense 8 x 6 matrix with entries of at most 40; an elimination
        that does not return to the least entry grows its entries past
        thousands of digits here."""
        mat = [
            [1, 25, 39, -39, -7, -21], [-15, -7, -29, -15, 25, -33],
            [36, -16, 24, -37, 27, 6], [18, -24, 4, -19, -36, 4],
            [37, -37, 9, 34, -16, -21], [1, 15, 17, -28, -38, -9],
            [37, -22, -21, -9, 25, 5], [-2, 34, -38, -8, 4, -14],
        ]

        def too_slow(signum, frame):
            raise TimeoutError("Smith form took more than 1 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            diag = _smith_diagonal(mat)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert diag == [1, 1, 1, 1, 2, 4] == _invariant_factors(mat)


def _determinant(mat):
    if not mat:
        return 1
    return sum((-1) ** j * v * _determinant([row[:j] + row[j + 1:] for row in mat[1:]])
               for j, v in enumerate(mat[0]) if v)


def _invariant_factors(mat):
    """Nonzero invariant factors from the determinantal divisors."""
    out, previous = [], 1
    for k in range(1, min(len(mat), len(mat[0])) + 1):
        d = 0
        for rows in itertools.combinations(mat, k):
            for cols in itertools.combinations(range(len(mat[0])), k):
                d = math.gcd(d, _determinant([[row[j] for j in cols] for row in rows]))
        if d == 0:
            break
        out.append(d // previous)
        previous = d
    return out


def _unimodular_step(rng, mat):
    """One random invertible integer row operation: a swap, a sign change
    or adding a multiple of one row to another."""
    i, j = rng.randrange(len(mat)), rng.randrange(len(mat))
    kind = rng.randrange(3)
    if kind == 0:
        mat[i], mat[j] = mat[j], mat[i]
    elif kind == 1:
        mat[i] = [-v for v in mat[i]]
    elif i != j:
        q = rng.randint(-3, 3)
        mat[i] = [a + q * b for a, b in zip(mat[i], mat[j])]


def _solutions(relators, n):
    """The pairs (a, b) of S_n with every relator trivial at x1 = a, x2 = b."""
    ident = tuple(range(n))

    def value(word, gens):
        out = ident
        for letter in word:
            g = gens[abs(letter) - 1]
            if letter < 0:
                g = tuple(sorted(ident, key=g.__getitem__))
            out = tuple(g[i] for i in out)
        return out

    perms = list(itertools.permutations(ident))
    return {
        (a, b) for a in perms for b in perms
        if all(value(r, (a, b)) == ident for r in relators)
    }


@pytest.mark.parametrize("exponent, relation, counts", [
    (1, (1, -2), (6, 24)),                                   # a = b
    (2, (1, 2, -1, -2), (18, 120)),                          # ab = ba
    (3, (1, 2, 1, -2, -1, -2), (12, 96)),                    # aba = bab
    (4, (1, 2, 1, 2, -1, -2, -1, -2), (30, 312)),            # (ab)^2 = (ba)^2
])
def test_fixed_loop_relators_are_the_local_relations(exponent, relation, counts):
    """For one factor sigma_1^e in B_2 the fixed-loop relators and the van
    Kampen relation of that singularity have the same solutions in S_3 and
    in S_4."""
    core = StructuredFactor(BraidWord.identity(2), HalfTwist(2, 1, 2), exponent)
    fact = Factorization(2, (core,))
    relators = [r.letters for r in presentation(fact).relators]
    for n, count in zip((3, 4), counts):
        solutions = _solutions(relators, n)
        assert solutions == _solutions([relation], n)
        assert len(solutions) == count
