"""The per-id `tau` and complement tables of the Garside kernel, the
closed-form inverse built on them, and the cancel step of the push loop.

Table entries are filled on first use, so a product must come out the same
whether the complements it meets are already in the table (the cancel step
fires) or not (the slide path runs)."""

import itertools
import random

import pytest

import braidmono.garside as garside
from braidmono.garside import RAW_IDENTITY, raw_inverse, raw_multiply, raw_of_word
from conftest import random_word
from test_kernel_reference import ref_raw_from_letters, ref_raw_multiply


def tau_formula(p):
    m = len(p)
    return tuple(m + 1 - p[m - x] for x in range(1, m + 1))


def complement_formula(p):
    inv = [0] * len(p)
    for i, v in enumerate(p, start=1):
        inv[v - 1] = i
    return tuple(reversed(inv))


def perm_ids(rng):
    """Every permutation of S_4, then random ones of S_8 and S_16."""
    ids = [garside._pid(p) for p in itertools.permutations(range(1, 5))]
    for m in (8, 16):
        for _ in range(40):
            ids.append(garside._pid(tuple(rng.sample(range(1, m + 1), m))))
    return ids


def clear_complements():
    garside._RCOMP[:] = [-1] * len(garside._RCOMP)


def old_raw_inverse(m, a):
    """The loop `raw_inverse` had before it mapped through the tables."""
    p, fids = a
    k = len(fids)
    out = []
    for i in range(1, k + 1):
        c = garside._rcomp_id(fids[k - i])
        out.append(garside._tau_id(c) if (p + k - i + 1) % 2 else c)
    return (-(p + k), tuple(out))


class TestTables:
    def test_tables_parallel_the_ids(self):
        before = len(garside._PERM_TUPLES)
        f = garside._pid(tuple(random.Random(1).sample(range(1, 21), 20)))
        # one new id, and nothing else interned with it
        assert len(garside._PERM_TUPLES) in (before, before + 1)
        assert len(garside._TAU) == len(garside._RCOMP) == len(garside._PERM_TUPLES)
        assert f < len(garside._TAU)

    def test_tau_matches_closed_formula(self, rng):
        for f in perm_ids(rng):
            p = garside._PERM_TUPLES[f]
            t = garside._tau_id(f)
            assert garside._PERM_TUPLES[t] == tau_formula(p)
            assert garside._TAU[f] == t and garside._TAU[t] == f

    def test_complement_matches_closed_formula(self, rng):
        for f in perm_ids(rng):
            p = garside._PERM_TUPLES[f]
            c = garside._rcomp_id(f)
            assert garside._PERM_TUPLES[c] == complement_formula(p)
            assert garside._RCOMP[f] == c

    def test_tau_and_complement_as_braids(self, rng):
        """Delta f = tau(f) Delta, and f C(f) = Delta."""
        for f in perm_ids(rng):
            m = len(garside._PERM_TUPLES[f])
            one = (0, (f,))
            if f in garside._strands(m)[:2]:
                continue
            t = garside._tau_id(f)
            assert raw_multiply(m, (1, ()), one) == raw_multiply(m, (0, (t,)), (1, ()))
            c = garside._rcomp_id(f)
            assert raw_multiply(m, one, (0, (c,))) == (1, ())

    def test_batch_maps_match_single_lookups(self, rng):
        ids = perm_ids(rng)
        rng.shuffle(ids)
        assert garside._twist(ids) == [garside._tau_id(f) for f in ids]
        assert garside._mapped(garside._RCOMP, garside._rcomp_id, ids) == [
            garside._rcomp_id(f) for f in ids
        ]

    def test_a_miss_fills_only_its_own_entry(self, rng):
        fresh = [garside._pid(tuple(rng.sample(range(1, 23), 22))) for _ in range(3)]
        assert all(garside._TAU[f] == -1 == garside._RCOMP[f] for f in fresh)
        t = garside._twist(fresh[:1])[0]
        c = garside._mapped(garside._RCOMP, garside._rcomp_id, fresh[1:2])[0]
        assert garside._TAU[fresh[0]] == t and garside._RCOMP[fresh[1]] == c
        assert garside._RCOMP[fresh[0]] == -1 and garside._TAU[fresh[1]] == -1
        assert garside._TAU[fresh[2]] == -1 == garside._RCOMP[fresh[2]]


class TestInverse:
    @pytest.mark.parametrize("m", [2, 3, 4, 6, 9])
    def test_matches_the_old_loop(self, rng, m):
        for _ in range(40):
            p, fids = raw_of_word(m, random_word(rng, m, 40).letters)
            for shift in (0, 1):  # both parities of p + k
                raw = (p + shift, fids)
                assert raw_inverse(m, raw) == old_raw_inverse(m, raw)

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_is_the_inverse(self, rng, m):
        for _ in range(40):
            raw = raw_of_word(m, random_word(rng, m, 40).letters)
            inv = raw_inverse(m, raw)
            assert raw_multiply(m, raw, inv) == RAW_IDENTITY
            assert raw_multiply(m, inv, raw) == RAW_IDENTITY


class TestCancelStep:
    def test_cancel_is_what_the_slide_gives(self, rng):
        """A product that ends in a factor times its complement, first with
        the complements cleared (the slide path), then filled (the cancel
        path).  (a, f) times (C(f), tau C(a)) cancels f with no cut before
        it, then a after one cut, so the entering id is twisted."""
        for f in perm_ids(rng):
            m = len(garside._PERM_TUPLES[f])
            ident, w0, gens, _ = garside._strands(m)
            if f in (ident, w0):
                continue
            a, f2 = garside._slide_ids(gens[rng.randrange(1, m)], f)
            cases = [((0, (f,)), (0, (garside._rcomp_id(f),)), (1, ()))]
            if a != w0 and f2 != ident:
                right = (0, raw_inverse(m, (0, (a, f2)))[1])
                cases.append(((0, (a, f2)), right, (2, ())))
            clear_complements()
            slid = [raw_multiply(m, x, y) for x, y, _ in cases]
            for x, y, _ in cases:
                raw_inverse(m, x)
            assert garside._RCOMP[f] >= 0
            filled = [raw_multiply(m, x, y) for x, y, _ in cases]
            assert slid == filled == [want for _, _, want in cases]

    @pytest.mark.parametrize("m", range(2, 9))
    def test_cancellation_runs(self, rng, m):
        """x times each prefix of x^-1: a run of 1 to k cancellations, then
        the rest of x left as it is, against the reference kernel."""
        for _ in range(10):
            x = raw_of_word(m, random_word(rng, m, 40).letters)
            q, inv = raw_inverse(m, x)
            for j in range(1, len(inv) + 1):
                y = (q, inv[:j])
                want = ref_raw_multiply(m, x, y)
                clear_complements()
                assert raw_multiply(m, x, y) == want
                raw_inverse(m, x)
                assert raw_multiply(m, x, y) == want

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_letters_with_many_inverses(self, rng, m):
        """At m = 2, Delta sigma_1^-1 is the identity id and sigma_1 is
        Delta, so an inverse letter pushes the identity, the complement of
        a leading Delta."""
        every_id = [garside._pid(p) for p in itertools.permutations(range(1, m + 1))]
        for _ in range(60):
            letters = tuple(rng.choice((-1, -1, -1, 1)) * rng.randint(1, m - 1)
                            for _ in range(rng.randint(0, 30)))
            want = ref_raw_from_letters(m, letters)
            clear_complements()
            assert raw_of_word(m, letters) == want
            for f in every_id:
                garside._rcomp_id(f)
            assert raw_of_word(m, letters) == want

    @pytest.mark.parametrize("m", range(2, 10))
    def test_products_with_and_without_filled_complements(self, rng, m):
        """Products, including x x^-1 and partial cancellations, against the
        reference kernel: first on a cleared complement table, then with
        the complements of both operands filled."""
        for _ in range(15):
            a = raw_of_word(m, random_word(rng, m, 30).letters)
            b = raw_of_word(m, random_word(rng, m, 30).letters)
            a_inv = raw_inverse(m, a)
            pairs = [(a, b), (a, a_inv), (a_inv, a),
                     (raw_multiply(m, a, b), raw_inverse(m, b)), (a_inv, raw_multiply(m, a, b))]
            want = [ref_raw_multiply(m, x, y) for x, y in pairs]
            assert want[1] == want[2] == RAW_IDENTITY
            clear_complements()
            assert [raw_multiply(m, x, y) for x, y in pairs] == want
            for x, y in pairs:
                raw_inverse(m, x)
                raw_inverse(m, y)
            assert [raw_multiply(m, x, y) for x, y in pairs] == want


def swap_at(x, i):
    return {i: i + 1, i + 1: i}.get(x, x)


class TestStrandRows:
    """One row per strand count holds its constants; the per-id tables stay
    parallel to the interned tuples, and a minimal word is computed per call."""

    @pytest.mark.parametrize("m", range(2, 17))
    def test_row_and_twisted_generators(self, m):
        ident, w0, gens, negs = garside._strands(m)
        assert garside._PERM_TUPLES[ident] == tuple(range(1, m + 1))
        assert garside._PERM_TUPLES[w0] == tuple(range(m, 0, -1))
        for i in range(1, m):
            # sigma_i swaps positions i and i+1 of the identity, Delta
            # sigma_i^-1 the same positions of the reversal
            swap = [swap_at(x, i) for x in range(1, m + 1)]
            assert garside._PERM_TUPLES[gens[i]] == tuple(swap)
            assert garside._PERM_TUPLES[negs[i]] == tuple(m + 1 - x for x in swap)
            # tau(sigma_i) = sigma_{m-i}, tau(Delta sigma_i^-1) = Delta sigma_{m-i}^-1
            assert garside._tau_id(gens[i]) == gens[m - i]
            assert garside._tau_id(negs[i]) == negs[m - i]

    def test_tables_after_a_sweep_and_a_walk(self, rng):
        from braidmono import braid_monodromy, hurwitz_move, hurwitz_move_inverse
        from braidmono import canonical_key, is_delta2_factorization
        from braidmono.braid import delta_word
        from conftest import random_generic_arrangement, standard_b3_factorization

        sweep = braid_monodromy(random_generic_arrangement(rng, 16))
        assert is_delta2_factorization(sweep)
        fact = standard_b3_factorization()
        for _ in range(200):
            k = rng.randint(1, len(fact.factors) - 1)
            move = hurwitz_move if rng.random() < 0.5 else hurwitz_move_inverse
            fact = move(fact, k)
        assert all(f.conjugator.strands == 3 for f in fact.factors)

        tables = (garside._TAU, garside._RCOMP, garside._ENDS, garside._STARTS,
                  garside._PADINV)
        assert all(len(t) == len(garside._PERM_TUPLES) for t in tables)
        # The factor ids of every element the sweep and the walk met.
        met = {f for g in (sweep, fact) for raw in canonical_key(g) for f in raw[1]}
        assert met
        for f in met:
            m = len(garside._PERM_TUPLES[f])
            assert raw_of_word(m, garside._lift_letters(f)) == (0, (f,))
        for m in range(2, 41):
            assert garside.raw_to_letters(m, (1, ())) == delta_word(m).letters
