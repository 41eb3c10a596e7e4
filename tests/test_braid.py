import random
import re

import pytest
from hypothesis import given, strategies as st

from braidmono import (
    BraidError,
    BraidWord,
    HalfTwist,
    Permutation,
    compose,
    exponent_sum,
    free_reduce,
    full_twist,
    half_twist_word,
    invert,
    permutation_of,
    power,
)
from braidmono.braid import prefix_walk
from braidmono.textio import ParseError, _letters, _spell
from conftest import trie_edges


def word(m, *letters):
    return BraidWord(m, letters)


def words(draw_m=st.integers(2, 6)):
    return draw_m.flatmap(
        lambda m: st.lists(
            st.integers(-(m - 1), m - 1).filter(lambda x: x != 0), max_size=25
        ).map(lambda ls: BraidWord(m, tuple(ls)))
    )


class TestCompose:
    def test_inverse_cancellation(self):
        assert compose(word(2, 1), word(2, -1)).letters == ()

    def test_concatenation(self):
        assert compose(word(3, 1, 2), word(3, 1)).letters == (1, 2, 1)

    def test_identity(self):
        assert compose(BraidWord.identity(3), word(3, 2)).letters == (2,)

    def test_strand_mismatch(self):
        with pytest.raises(BraidError):
            compose(word(2, 1), word(3, 1))


class TestInvert:
    def test_definition(self):
        assert invert(word(3, 1, 2)).letters == (-2, -1)

    def test_empty(self):
        assert invert(BraidWord.identity(3)).letters == ()

    def test_inverse_generator(self):
        assert invert(word(2, -1)).letters == (1,)


class TestPermutation:
    def test_generator_image(self):
        assert permutation_of(word(3, 1)) == Permutation.transposition(3, 1, 2)

    def test_full_twist_is_pure(self):
        assert permutation_of(full_twist(3)).is_identity()

    def test_three_cycle(self):
        p = permutation_of(word(3, 1, 2))
        assert (p(1), p(2), p(3)) == (2, 3, 1)

    @given(words(), st.randoms())
    def test_homomorphism(self, w1, rnd):
        w2 = BraidWord(
            w1.strands,
            tuple(
                rnd.choice([i for i in range(-(w1.strands - 1), w1.strands) if i])
                for _ in range(10)
            ),
        )
        assert permutation_of(compose(w1, w2)) == permutation_of(w1) * permutation_of(w2)

    def test_cycle_type(self):
        assert permutation_of(word(3, 1, 2)).cycle_type() == (3,)
        assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)


class TestExponentSum:
    def test_signed_count(self):
        assert exponent_sum(word(3, 1, 2, -1)) == 1

    def test_full_twist_degree(self):
        # independent count: Delta has m(m-1)/2 letters, squared doubles it
        for m in range(2, 8):
            ft = full_twist(m)
            assert exponent_sum(ft) == len(ft.letters) == m * (m - 1)

    def test_conjugation_invariant(self, rng):
        from conftest import random_word

        for _ in range(50):
            w = random_word(rng, 4)
            c = random_word(rng, 4)
            assert exponent_sum(compose(c, w, invert(c))) == exponent_sum(w)


class TestHalfTwist:
    def test_adjacent_band(self):
        assert half_twist_word(HalfTwist(2, 1, 2)).letters == (1,)

    def test_stated_formula(self):
        assert half_twist_word(HalfTwist(3, 1, 3)).letters == (2, 1, -2)

    def test_permutation_is_transposition(self):
        for m, a, b in [(4, 1, 3), (5, 2, 5), (6, 1, 6), (3, 2, 3)]:
            h = HalfTwist(m, a, b)
            assert permutation_of(half_twist_word(h)) == Permutation.transposition(m, a, b)

    def test_exponent_sum_one(self):
        for m, a, b in [(4, 1, 4), (5, 2, 4)]:
            assert exponent_sum(half_twist_word(HalfTwist(m, a, b))) == 1

    def test_strand_tracking_oracle(self):
        # independently simulate the strands through the word
        def track(w):
            pos = list(range(1, w.strands + 1))
            for letter in w.letters:
                i = abs(letter)
                pos[i - 1], pos[i] = pos[i], pos[i - 1]
            return pos

        for m, a, b in [(5, 1, 4), (6, 2, 6), (4, 1, 2)]:
            w = half_twist_word(HalfTwist(m, a, b))
            moved = track(w)
            want = list(range(1, m + 1))
            want[a - 1], want[b - 1] = want[b - 1], want[a - 1]
            assert moved == want

    def test_invalid_endpoints(self):
        with pytest.raises(BraidError):
            HalfTwist(3, 2, 2)
        with pytest.raises(BraidError):
            HalfTwist(3, 1, 4)

    def test_positive_conjugate_of_sigma1(self):
        # every band generator is C sigma_1 C^-1 for an explicit positive C:
        # climb sigma_a down to sigma_1 via sigma_{i+1} = (s_i s_{i+1}) s_i (...)^-1,
        # then carry the band out to [a, b]
        from braidmono import words_equal

        for m, a, b in [(3, 1, 3), (4, 2, 4), (5, 3, 5), (5, 2, 3), (6, 4, 6)]:
            chain = []
            for i in range(a - 1, 0, -1):
                chain.extend((i, i + 1))
            conj = BraidWord(m, tuple(range(b - 1, a, -1)) + tuple(chain))
            lhs = half_twist_word(HalfTwist(m, a, b))
            rhs = compose(conj, BraidWord(m, (1,)), invert(conj))
            assert all(l > 0 for l in conj.letters)
            assert words_equal(lhs, rhs)


class TestFullTwist:
    def test_b2(self):
        assert full_twist(2).letters == (1, 1)

    def test_needs_two_strands(self):
        with pytest.raises(BraidError):
            full_twist(1)

    def test_exponent_sum_b4(self):
        assert exponent_sum(full_twist(4)) == 12


class TestConjugate:
    def test_power(self):
        assert power(word(3, 1), 3).letters == (1, 1, 1)
        assert power(word(3, 1), -2).letters == (-1, -1)
        assert power(word(3, 1, -1), 5).letters == ()


class TestTokens:
    """The generator tokens of braid words, read and written by `textio`."""

    def test_parse_format_roundtrip(self):
        letters = (1, -2, 3, -1)
        assert _letters(_spell(letters, "sS").split(), "sS", None) == letters

    def test_bad_token(self):
        with pytest.raises(ParseError):
            _letters(["q2"], "sS", None)
        with pytest.raises(ParseError):
            _letters(["s"], "sS", None)

    @pytest.mark.parametrize("token", ["s\u0663", "S\u00b2", "s1_0", "s+1", "s-1", "s 1", "\uff53\uff11"])
    def test_only_ascii_digits(self, token):
        with pytest.raises(ParseError, match=re.escape(repr(token))):
            _letters([token], "sS", None)

    def test_index_past_the_int_digit_limit(self):
        token = "s" + "1" * 5000
        with pytest.raises(ParseError, match="bad generator index in token"):
            _letters([token], "sS", None)


class TestValidation:
    def test_letter_out_of_range(self):
        with pytest.raises(BraidError):
            BraidWord(3, (3,))
        with pytest.raises(BraidError):
            BraidWord(3, (0,))

    @pytest.mark.parametrize("bad", [0, 4, -4])
    def test_first_bad_letter_is_named(self, bad):
        with pytest.raises(BraidError) as err:
            BraidWord(4, (1, -3, 2, bad, 3, 5, 0))
        assert str(err.value) == f"letter {bad} out of range for 4 strands"

    def test_permutation_must_be_bijection(self):
        with pytest.raises(BraidError):
            Permutation((1, 1, 3))


def loop_free_reduce(letters):
    """The reduction loop on its own, the reference for `free_reduce`."""
    out = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class TestFreeReduce:
    def test_generator_input(self):
        assert free_reduce(x for x in (1, 2, -2, 3)) == (1, 3)
        assert free_reduce(x for x in (1, -2, 3)) == (1, -2, 3)
        assert free_reduce(x for x in ()) == ()

    def test_reduced_word_is_returned_as_it_is(self):
        positive = (1, 2, 1, 3, 3, 2)
        assert free_reduce(positive) is positive
        assert free_reduce([2, -1, -1]) == (2, -1, -1)

    def test_cancellation_at_either_end(self):
        assert free_reduce((1, -1, 2, 3)) == (2, 3)
        assert free_reduce((2, 3, -3)) == (2,)
        assert free_reduce((-4, 4)) == ()

    def test_nested_cancellation(self):
        assert free_reduce((1, 2, -2, -1)) == ()
        assert free_reduce((3, 1, 2, -2, -1, 4)) == (3, 4)

    def test_random_words_match_the_loop(self):
        rng = random.Random(22)
        for _ in range(3000):
            w = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(0, 14)))
            assert free_reduce(w) == free_reduce(iter(w)) == loop_free_reduce(w), w


WALK_CASES = [
    pytest.param([], id="no-words"),
    pytest.param([(1, 2, 3), (1, 2, 4), (1, 3)], id="resume-at-decreasing-depths"),
    pytest.param([(2, 1), (), (2, 1), (2, 1, 3), ()], id="duplicates-empty-prefix"),
    pytest.param([(1, -1, 2), (1, -1), (-3, -2, 1), (-3, 2)], id="unreduced-negative"),
    pytest.param([(1, 2, 3, 4), (1, 2, 3), (1, 2), (1,)], id="chain"),
    pytest.param([tuple(random.Random(i).choices((1, 2, -1), k=i % 7)) for i in range(40)],
                 id="random"),
]


def walk_by_concatenation(words):
    """(the walk's yields, the segments it handed `extend`), with the
    letters walked so far as the state."""
    passed = []

    def extend(state, letters):
        passed.append(letters)
        return state + letters

    return list(prefix_walk(words, (), extend)), passed


class TestPrefixWalk:
    @pytest.mark.parametrize("words", WALK_CASES)
    def test_each_trie_edge_passed_once(self, words):
        """Each word comes back, in sorted order, and `extend` is handed
        each trie edge exactly once."""
        walked, passed = walk_by_concatenation(words)
        assert [i for i, _ in walked] == sorted(range(len(words)), key=words.__getitem__)
        assert all(state == words[i] for i, state in walked)
        assert sum(map(len, passed)) == trie_edges(words)
        assert () not in passed

    def test_third_word_resumes_where_only_the_first_walked(self):
        """(1, 3) resumes at depth 1, inside the first word's walk, so the
        state there was kept although the second word did not pass it."""
        _, passed = walk_by_concatenation([(1, 2, 3), (1, 2, 4), (1, 3)])
        assert passed == [(1,), (2,), (3,), (4,), (3,)]
