import itertools
import random

import pytest

from braidmono import (
    BraidError,
    BraidWord,
    cable_word,
    compose,
    free_reduce,
    full_twist,
    invert,
    normal_form,
    permutation_of,
    power,
    words_equal,
)
import braidmono.garside as garside
from conftest import random_word, reduced_word


def naive_normalize(fids, m):
    """Bubble-to-fixpoint reference, independent of the comb discipline."""
    fids = list(fids)
    changed = True
    while changed:
        changed = False
        for j in range(len(fids) - 1):
            a2, b2 = garside._slide_ids(fids[j], fids[j + 1])
            if a2 != fids[j]:
                fids[j], fids[j + 1] = a2, b2
                changed = True
    return garside._strip_ids(fids, m)


def assert_valid(nf):
    """Structural invariants: no identity or Delta factor, adjacent pairs
    left-weighted."""
    m = nf.strands
    w0 = tuple(range(m, 0, -1))
    for p in nf.canonical_factors:
        assert not p.is_identity()
        assert p.images != w0
    for x, y in zip(nf.canonical_factors, nf.canonical_factors[1:]):
        a2, _ = garside._slide_ids(garside._pid(x.images), garside._pid(y.images))
        assert a2 == garside._pid(x.images)


class TestKnownForms:
    def test_trivial_word(self):
        nf = normal_form(BraidWord(3, (1, -1)))
        assert nf.is_identity()

    def test_delta_b3(self):
        nf = normal_form(BraidWord(3, (1, 2, 1)))
        assert nf.delta_power == 1 and nf.canonical_length() == 0

    def test_braid_relation(self):
        assert normal_form(BraidWord(3, (1, 2, 1))) == normal_form(BraidWord(3, (2, 1, 2)))

    def test_full_twist_equals_alternating_word(self):
        assert words_equal(full_twist(3), BraidWord(3, (1, 2, 1, 2, 1, 2)))

    def test_distinct_generators(self):
        assert not words_equal(BraidWord(3, (1,)), BraidWord(3, (2,)))

    def test_strand_mismatch(self):
        with pytest.raises(BraidError):
            words_equal(BraidWord(2, (1,)), BraidWord(3, (1,)))

    def test_identity_permutation_in_b1(self):
        """In B_1 the identity permutation braid is also Delta; its form is
        the identity, as the word path gives it."""
        assert garside.raw_of_permutation(1, (1,)) == (0, ())
        assert normal_form(BraidWord(1, ())) == garside.nf_from_raw(1, (0, ()))


class TestRoundTrips:
    def test_inverse_cancels(self, rng):
        for _ in range(300):
            w = random_word(rng, rng.randint(2, 6))
            assert normal_form(compose(w, invert(w))).is_identity()


class TestCentrality:
    def test_full_twist_commutes(self, rng):
        for _ in range(200):
            m = rng.randint(2, 6)
            w = random_word(rng, m)
            ft = full_twist(m)
            assert words_equal(compose(ft, w), compose(w, ft))


def insert_relator(rng, w):
    m = w.strands
    kind = rng.randrange(3)
    if kind == 1 and m >= 3:
        i = rng.randint(1, m - 2)
        rel = (i, i + 1, i, -(i + 1), -i, -(i + 1))
    elif kind == 2 and m >= 4:
        i = rng.randint(1, m - 3)
        j = rng.randint(i + 2, m - 1)
        rel = (i, j, -i, -j)
    else:
        i = rng.randint(1, m - 1)
        rel = (i, -i) if rng.random() < 0.5 else (-i, i)
    p = rng.randint(0, len(w.letters))
    return BraidWord(m, w.letters[:p] + rel + w.letters[p:])


class TestSoundness:
    def test_relator_insertions(self, rng):
        for _ in range(500):
            w = random_word(rng, rng.randint(2, 6), 30)
            w2 = insert_relator(rng, w)
            assert normal_form(w) == normal_form(w2)

    def test_against_naive_fixpoint(self, rng):
        from braidmono import permutation_of

        def single_factor_raw(m, f):
            ident, w0, _, _ = garside._strands(m)
            if f == w0:
                return (1, ())
            if f == ident:
                return (0, ())
            return (0, (f,))

        for _ in range(300):
            m = rng.randint(2, 6)
            soup = [
                garside._pid(permutation_of(random_word(rng, m, 6)).images)
                for _ in range(rng.randint(0, 10))
            ]
            got = garside.RAW_IDENTITY
            for f in soup:
                got = garside.raw_multiply(m, got, single_factor_raw(m, f))
            assert got == naive_normalize(soup, m)

        # Multi-factor right operands: Delta^p L Delta^q R is
        # Delta^(p+q) tau^q(L) R, for odd and even q.
        for _ in range(300):
            m = rng.randint(2, 6)
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            left = garside.raw_of_word(m, random_word(rng, m, 30).letters)[1]
            right = garside.raw_of_word(m, random_word(rng, m, 30).letters)[1]
            twisted = [garside._tau_id(f) if q % 2 else f for f in left]
            shift, fids = naive_normalize(twisted + list(right), m)
            got = garside.raw_multiply(m, (p, left), (q, right))
            assert got == (p + q + shift, fids)


def raw_of(w):
    return garside.raw_of_word(w.strands, w.letters)


class TestNormalFormAlgebra:
    """Canonical-form arithmetic on the raw kernel, checked against words."""

    def test_multiply_matches_words(self, rng):
        for _ in range(400):
            m = rng.randint(2, 6)
            w1, w2 = random_word(rng, m, 30), random_word(rng, m, 30)
            got = garside.raw_multiply(m, raw_of(w1), raw_of(w2))
            assert got == raw_of(compose(w1, w2))
            assert_valid(garside.nf_from_raw(m, got))

    def test_inverse_matches_words(self, rng):
        for _ in range(400):
            m = rng.randint(2, 6)
            w = random_word(rng, m, 30)
            got = garside.raw_inverse(m, raw_of(w))
            assert got == raw_of(invert(w))
            assert_valid(garside.nf_from_raw(m, got))

    def test_maximal_cancellation(self, rng):
        for _ in range(200):
            m = rng.randint(2, 6)
            n = raw_of(random_word(rng, m, 40))
            inv = garside.raw_inverse(m, n)
            assert garside.raw_multiply(m, n, inv) == garside.RAW_IDENTITY
            assert garside.raw_multiply(m, inv, n) == garside.RAW_IDENTITY

    def test_power_and_conjugate(self, rng):
        for _ in range(150):
            m = rng.randint(2, 5)
            w, c = random_word(rng, m, 20), random_word(rng, m, 20)
            e = rng.randint(-3, 4)
            step = raw_of(w) if e >= 0 else garside.raw_inverse(m, raw_of(w))
            got = garside.RAW_IDENTITY
            for _ in range(abs(e)):
                got = garside.raw_multiply(m, got, step)
            assert got == raw_of(power(w, e))
            rc = raw_of(c)
            got = garside.raw_multiply(m, garside.raw_multiply(m, rc, raw_of(w)),
                                       garside.raw_inverse(m, rc))
            assert got == raw_of(compose(c, w, invert(c)))


class TestMirrorNote:
    def test_mirror_is_not_identity_convention(self):
        # sigma_1 and its mirror sigma_1^-1 are distinct braids here; any
        # comparison with tables using the opposite sign convention must
        # apply the global mirror first.
        assert not words_equal(BraidWord(2, (1,)), BraidWord(2, (-1,)))


def slide_reference(fa, fb):
    """The slide loop as first written: both descent masks are recomputed
    from scratch after every moved crossing, and b is updated in place."""
    a = garside._PERM_TUPLES[fa]
    b = garside._PERM_TUPLES[fb]
    d = garside._descent_mask(garside._inverse_tuple(b)) & ~garside._descent_mask(a)
    if not d:
        return (fa, fb)
    al = list(a)
    bl = list(b)
    binv = list(garside._inverse_tuple(b))
    while d:
        i = (d & -d).bit_length() - 1
        al[i - 1], al[i] = al[i], al[i - 1]
        pi, qi = binv[i - 1], binv[i]
        bl[pi - 1], bl[qi - 1] = i + 1, i
        binv[i - 1], binv[i] = qi, pi
        d = garside._descent_mask(binv) & ~garside._descent_mask(al)
    return (garside._pid(tuple(al)), garside._pid(tuple(bl)))


def uncached_slide(fa, fb):
    garside._slide_cache.pop((fa, fb), None)
    return garside._slide_ids(fa, fb)


def single_letter_raw(m, letter):
    _, _, gens, negs = garside._strands(m)
    if letter > 0:
        return (0, (gens[letter],))
    return (-1, (negs[-letter],))


class TestKernelPaths:
    def test_slide_matches_reference_s4(self):
        perms = [garside._pid(p) for p in itertools.permutations(range(1, 5))]
        for fa in perms:
            for fb in perms:
                assert uncached_slide(fa, fb) == slide_reference(fa, fb)

    def test_slide_matches_reference_s8(self, rng):
        for _ in range(500):
            fa = garside._pid(tuple(rng.sample(range(1, 9), 8)))
            fb = garside._pid(tuple(rng.sample(range(1, 9), 8)))
            assert uncached_slide(fa, fb) == slide_reference(fa, fb)

    @pytest.mark.parametrize("m", [3, 8, 16])
    def test_letters_match_multiply_fold(self, rng, m):
        for _ in range(30):
            w = random_word(rng, m, 120)
            want = garside.RAW_IDENTITY
            for letter in w.letters:
                want = garside.raw_multiply(m, want, single_letter_raw(m, letter))
            got = garside.raw_of_word(m, w.letters)
            assert got == want
            assert not set(garside._strands(m)[:2]) & set(got[1])

    def test_raw_permutation_matches_words(self, rng):
        for _ in range(300):
            m = rng.randint(2, 8)
            w = random_word(rng, m)
            raw = garside.raw_of_word(m, w.letters)
            assert garside.raw_permutation(m, raw) == permutation_of(w)


def random_pid(rng, m):
    return garside._pid(tuple(rng.sample(range(1, m + 1), m)))


class TestSlideTables:
    """A slide miss reads its masks and b^-1 from the per-id tables, and
    fills `_PADINV` of the b it creates from the loop's own list."""

    @pytest.mark.parametrize("m", [*range(2, 9), 16, 24])
    def test_slide_matches_reference(self, rng, m):
        for _ in range(250):
            fa, fb = random_pid(rng, m), random_pid(rng, m)
            assert uncached_slide(fa, fb) == slide_reference(fa, fb)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_full_transfers_and_delta(self, rng, m):
        """b a prefix of the right complement of a: a b is simple, so every
        crossing of b moves; b the whole complement makes Delta."""
        ident, w0, _, _ = garside._strands(m)

        def simple(letters):
            """The id of a positive word that spells a permutation braid."""
            p, fids = garside.raw_of_word(m, letters)
            return w0 if p else fids[0] if fids else ident

        for _ in range(80):
            fa = random_pid(rng, m)
            word = garside._lift_letters(garside._rcomp_id(fa))
            k = rng.choice([len(word), rng.randint(0, len(word))])
            got = uncached_slide(fa, simple(word[:k]))
            assert got == slide_reference(fa, simple(word[:k]))
            assert got == (simple(garside._lift_letters(fa) + word[:k]), ident)
            assert (got[0] == w0) == (k == len(word))

    @pytest.mark.parametrize("m", [16, 24])
    def test_pairs_of_ids_interned_by_a_slide(self, m):
        # a seed of its own, so that no earlier test interned these ids
        rng = random.Random(0x51DE + m)
        made = []
        for _ in range(150):
            fa, fb = random_pid(rng, m), random_pid(rng, m)
            before = len(garside._PERM_TUPLES)
            a2, b2 = uncached_slide(fa, fb)
            made.extend(f for f in (a2, b2) if f >= before)
        assert len(made) > 100
        for f in made:
            assert garside._PADINV[f] is None or garside._PADINV[f] == (
                0, *garside._inverse_tuple(garside._PERM_TUPLES[f]), m + 1
            )
        for _ in range(300):
            fa = rng.choice(made)
            fb = rng.choice(made) if rng.random() < 0.5 else random_pid(rng, m)
            if rng.random() < 0.5:
                fa, fb = fb, fa
            assert uncached_slide(fa, fb) == slide_reference(fa, fb)

    def test_filled_entries_match_recomputation(self, rng):
        from braidmono import braid_monodromy, is_delta2_factorization
        from conftest import random_generic_arrangement

        fact = braid_monodromy(random_generic_arrangement(rng, 16))
        assert is_delta2_factorization(fact)
        tables = (garside._ENDS, garside._STARTS, garside._PADINV)
        assert all(len(t) == len(garside._PERM_TUPLES) for t in tables)
        filled = [0, 0, 0]
        for f, p in enumerate(garside._PERM_TUPLES):
            inv = garside._inverse_tuple(p)
            if garside._ENDS[f] != -1:
                filled[0] += 1
                assert garside._ENDS[f] == garside._descent_mask(p)
            if garside._STARTS[f] != -1:
                filled[1] += 1
                assert garside._STARTS[f] == garside._descent_mask(inv)
            if garside._PADINV[f] is not None:
                filled[2] += 1
                assert garside._PADINV[f] == (0, *inv, len(p) + 1)
        assert min(filled) > 0


class TestCable:
    """`raw_cable` against the form of the cabled word, j -> (2j-1, 2j)."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_the_cabled_word(self, rng, n):
        """The empty word, Delta^p for p of both signs and parities, and
        random words behind a random power of Delta."""
        delta = tuple(j for i in range(1, n) for j in range(i, 0, -1))

        def twist(p):
            return delta * p if p > 0 else tuple(-x for x in reversed(delta)) * -p

        words = [twist(p) for p in range(-3, 4)]
        words += [twist(rng.randint(-3, 3)) + random_word(rng, n, 20).letters for _ in range(40)]
        for w in words:
            got = garside.raw_cable(n, garside.raw_of_word(n, w))
            cabled = cable_word(BraidWord(n, w)).letters
            assert got == garside.raw_of_word(2 * n, cabled)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_delta_is_the_cabled_delta_times_the_pair_crossings(self, n):
        """Delta_2n = cable(Delta_n) prod_j sigma_{2j-1}."""
        pairs = garside.raw_of_word(2 * n, tuple(range(1, 2 * n, 2)))
        assert garside.raw_multiply(2 * n, garside.raw_cable(n, (1, ())), pairs) == (1, ())


def lift_reference(images):
    """The left-peeled word by the rescanning loop: strip sigma_i for the
    least descent i of p^-1, scanning again from 1 after every swap."""
    inv = [0] * len(images)
    for i, v in enumerate(images, start=1):
        inv[v - 1] = i
    word = []
    while True:
        i = next((i for i in range(1, len(inv)) if inv[i - 1] > inv[i]), None)
        if i is None:
            return tuple(word)
        word.append(i)
        inv[i - 1], inv[i] = inv[i], inv[i - 1]


class TestLift:
    """`_lift_letters` resumes its scan one place left of each swap and
    gives the rescanning loop's word."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_every_permutation(self, m):
        for images in itertools.permutations(range(1, m + 1)):
            assert garside._lift_letters(garside._pid(images)) == lift_reference(images)

    @pytest.mark.parametrize("m", [16, 24, 32, 64])
    def test_random_permutations(self, rng, m):
        perms = [tuple(range(m, 0, -1))]
        perms += [tuple(rng.sample(range(1, m + 1), m)) for _ in range(60)]
        for images in perms:
            assert garside._lift_letters(garside._pid(images)) == lift_reference(images)


def whole_word_equal(w1, w2):
    """The whole-word reference: both reduced words normalized in full."""
    return garside.raw_of_word(w1.strands, free_reduce(w1.letters)) == garside.raw_of_word(
        w2.strands, free_reduce(w2.letters))


def relators(m):
    """Words equal to the identity in B_m: each braid relation, as a relator."""
    out = [(i, i + 1, i, -(i + 1), -i, -(i + 1)) for i in range(1, m - 1)]
    out += [(i, j, -i, -j) for i in range(1, m) for j in range(i + 2, m)]
    return out


def any_word(rng, m):
    """`random_word`, and in B_1, where there are no letters, the empty word."""
    return random_word(rng, m) if m > 1 else BraidWord(1, ())


def edited(rng, letters, edit, m):
    """`letters` after one edit; `edit` names its kind."""
    cut = rng.randint(0, len(letters))
    if edit == "flip" and letters:
        k = rng.randrange(len(letters))
        return letters[:k] + (-letters[k],) + letters[k + 1:]
    if edit == "relation" and relators(m):
        return letters[:cut] + rng.choice(relators(m)) + letters[cut:]
    if edit == "pair" and m > 1:
        i = rng.randint(1, m - 1) * rng.choice((1, -1))
        return letters[:cut] + (i, -i) + letters[cut:]
    if edit == "unrelated":
        return any_word(rng, m).letters
    if edit == "prefix":
        return letters[:cut] if rng.random() < 0.5 else letters + any_word(rng, m).letters
    return letters


class TestWordsEqual:
    """`words_equal` normalizes only the middles between the common prefix
    and suffix, after an exponent-sum check, and answers as the whole-word
    reference does."""

    @pytest.mark.parametrize("edit", ["flip", "relation", "pair", "unrelated", "prefix"])
    def test_agrees_with_the_whole_word_reference(self, edit):
        rng = random.Random(f"words_equal {edit}")
        answers = set()
        for m in range(1, 9):
            for _ in range(60):
                w1 = any_word(rng, m)
                w2 = BraidWord(m, edited(rng, w1.letters, edit, m))
                want = whole_word_equal(w1, w2)
                assert words_equal(w1, w2) == want == words_equal(w2, w1)
                answers.add(want)
        # A flip leaves an empty word as it is, so each edit but the two
        # insertions of a relator meets both answers.
        assert answers == ({True} if edit in ("relation", "pair") else {False, True})

    @pytest.mark.parametrize("u, v, want", [
        ((1, 2, 1), (1, 2, 1, 2, 1), False),  # prefix and suffix would overlap
        ((1, 2, 1), (1, 2, 1, 1, 2, 1), False),
        ((1, 2, 1, 2), (1, 2, 2, 1, 2, 2), False),
        ((1, 2, 1), (2, 1, 2), True),
        ((1, 2, 1, 2), (2, 1, 2, 2), True),
        ((), (), True),
        ((), (1, -1), True),
        ((), (1, 2, 1, -2, -1, -2), True),
        ((), (1,), False),
        ((), (1, 2, -1, -2), False),  # same exponent sum, not the identity
        ((2, 1, -2), (-1, 2, 1), True),
    ])
    def test_known_pairs(self, u, v, want):
        w1, w2 = BraidWord(3, u), BraidWord(3, v)
        assert words_equal(w1, w2) == words_equal(w2, w1) == whole_word_equal(w1, w2) == want

    @pytest.fixture
    def letters_normalized(self, monkeypatch):
        passed = []
        normalize = garside.raw_of_word

        def counted(m, letters):
            passed.append(len(letters))
            return normalize(m, letters)

        monkeypatch.setattr(garside, "raw_of_word", counted)
        return passed

    def test_only_the_middles_are_normalized(self, letters_normalized):
        word = reduced_word(random.Random(400), 3, 400)
        relation = (1, 2, 1, -2, -1, -2)
        assert words_equal(BraidWord(3, word), BraidWord(3, word[:200] + relation + word[200:]))
        assert sum(letters_normalized) <= 6

    def test_unequal_exponent_sums_normalize_nothing(self, letters_normalized):
        word = reduced_word(random.Random(400), 3, 400)
        flipped = word[:200] + (-word[200],) + word[201:]
        assert not words_equal(BraidWord(3, word), BraidWord(3, flipped))
        assert letters_normalized == []
