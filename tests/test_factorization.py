import importlib.util
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import pytest

import braidmono.factorization as fz
import braidmono.garside as garside
from braidmono import (
    ArrangementError,
    BlockFactor,
    BraidError,
    BraidWord,
    Factorization,
    HalfTwist,
    LineArrangement,
    StructuredFactor,
    Verdict,
    apply_moves,
    braid_monodromy,
    canonical_key,
    complete_deficit,
    compose,
    delta_word,
    expand,
    exponent_sum,
    full_twist,
    half_twist_word,
    hm_invariants,
    hurwitz_equivalent,
    hurwitz_move,
    hurwitz_move_inverse,
    invert,
    is_delta2_factorization,
    orbit_enumerate,
    product,
    product_nf,
    regenerate,
    singular_points,
    words_equal,
)
from braidmono.textio import ParseError, parse_factorization
from conftest import random_generic_arrangement, random_word, standard_b3_factorization

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# The bench's Burau oracle, which imports nothing of braidmono.
_spec = importlib.util.spec_from_file_location("burau_oracle", ROOT / "bench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def sf(m, a, b, exp=1, conj=()):
    return StructuredFactor(BraidWord(m, conj), HalfTwist(m, a, b), exp)


class TestStrandCount:
    @pytest.mark.parametrize("m", [0, -1])
    def test_no_braid_group(self, m):
        with pytest.raises(BraidError, match=f"strand count must be positive, got {m}"):
            Factorization(m)

    def test_one_strand(self):
        assert Factorization(1).strands == 1


class TestExpand:
    def test_plain_generator(self):
        assert expand(sf(2, 1, 2)).letters == (1,)

    def test_square(self):
        assert expand(sf(2, 1, 2, exp=2)).letters == (1, 1)

    def test_degree_is_exponent_sum(self, rng):
        for _ in range(50):
            m = rng.randint(2, 5)
            a = rng.randint(1, m - 1)
            b = rng.randint(a + 1, m)
            f = StructuredFactor(random_word(rng, m, 12), HalfTwist(m, a, b), rng.randint(1, 4))
            assert exponent_sum(expand(f)) == f.degree() == f.exponent

    def test_block_factor_degree(self):
        f = BlockFactor(BraidWord.identity(5), 2, 4, exponent=2)
        assert exponent_sum(expand(f)) == f.degree() == 6

    def test_conjugated_expansion(self, rng):
        for _ in range(30):
            m = rng.randint(2, 5)
            c = random_word(rng, m, 10)
            f = StructuredFactor(c, HalfTwist(m, 1, m), 2)
            core = half_twist_word(HalfTwist(m, 1, m))
            want = compose(c, core, core, invert(c))
            assert words_equal(expand(f), want)


class TestProduct:
    def test_empty_is_identity(self):
        assert product(Factorization(3)).letters == ()

    def test_two_nodes_b2(self):
        F = Factorization(2, (sf(2, 1, 2), sf(2, 1, 2)))
        assert words_equal(product(F), BraidWord(2, (1, 1)))

    def test_paper_example_is_delta2(self, b3_factorization):
        assert words_equal(product(b3_factorization), full_twist(3))
        assert is_delta2_factorization(b3_factorization)
        assert b3_factorization.degree() == 6

    def test_one_strand_empty_is_delta2(self):
        """In B_1 the full twist is the identity and no factor fits (a
        half-twist or block needs two strands), so the empty factorization
        is the one factorization of Delta^2."""
        assert is_delta2_factorization(Factorization(1))

    def test_single_node_not_delta2(self):
        assert not is_delta2_factorization(Factorization(2, (sf(2, 1, 2),)))

    def test_wrong_degree_answers_without_multiplying(self):
        # expanding this core letter by letter would take ~10^9 steps
        huge = Factorization(2, (sf(2, 1, 2, exp=999_999_999),))
        assert not is_delta2_factorization(huge)

    def test_product_nf_matches_product(self, rng, b3_factorization):
        from braidmono import normal_form

        F = b3_factorization
        for _ in range(5):
            F = hurwitz_move(F, rng.randint(1, 5))
        assert product_nf(F) == normal_form(product(F))

    def test_degree_equals_product_exponent_sum_when_delta2(self, rng):
        from braidmono import braid_monodromy
        from conftest import random_generic_arrangement

        for _ in range(10):
            m = rng.randint(2, 5)
            F = braid_monodromy(random_generic_arrangement(rng, m))
            assert is_delta2_factorization(F)
            assert F.degree() == exponent_sum(product(F)) == m * (m - 1)


class TestHurwitzMove:
    def test_definition(self):
        F = Factorization(3, (sf(3, 1, 2), sf(3, 2, 3)))
        G = hurwitz_move(F, 1)
        # new first factor is s1 s2 s1^-1, second is s1
        assert words_equal(expand(G.factors[0]), BraidWord(3, (1, 2, -1)))
        assert words_equal(expand(G.factors[1]), BraidWord(3, (1,)))
        # structurally: base swapped in from old position 2, exponent kept
        assert G.factors[0].base == HalfTwist(3, 2, 3)
        assert G.factors[1] == F.factors[0]

    def test_inverse_definition(self):
        F = Factorization(3, (sf(3, 1, 2), sf(3, 2, 3)))
        G = hurwitz_move_inverse(hurwitz_move(F, 1), 1)
        assert canonical_key(G) == canonical_key(F)

    def test_product_preserved(self, rng, b3_factorization):
        F = b3_factorization
        p0 = product_nf(F)
        for _ in range(60):
            k = rng.randint(1, len(F.factors) - 1)
            F = hurwitz_move(F, k) if rng.random() < 0.5 else hurwitz_move_inverse(F, k)
            assert product_nf(F) == p0

    def test_out_of_range(self, b3_factorization):
        with pytest.raises(BraidError):
            hurwitz_move(b3_factorization, 0)
        with pytest.raises(BraidError):
            hurwitz_move(b3_factorization, 6)

    def test_exponent_multiset_preserved(self, b3_factorization):
        F = hurwitz_move(b3_factorization, 3)
        assert sorted(f.exponent for f in F.factors) == [1] * 6


class TestInvariants:
    def test_class_multiset_paper_example(self, b3_factorization):
        inv = hm_invariants(b3_factorization)
        # six branch factors, each a transposition
        assert len(inv.class_multiset) == 6
        assert set(inv.class_multiset) == {("halftwist", 1, (2, 1))}

    def test_invariants_stable_under_moves(self, rng, b3_factorization):
        F = b3_factorization
        inv0 = hm_invariants(F)
        for _ in range(200):
            k = rng.randint(1, 5)
            F = hurwitz_move(F, k) if rng.random() < 0.5 else hurwitz_move_inverse(F, k)
        assert hm_invariants(F) == inv0

    def test_multiset_separates(self, b3_factorization):
        node = Factorization(
            3, b3_factorization.factors[:4] + (sf(3, 1, 2, exp=2),)
        )
        assert (
            hm_invariants(node).class_multiset
            != hm_invariants(b3_factorization).class_multiset
        )

    @pytest.mark.parametrize("m, low", [(2, 1), (4, 2)])
    def test_width_two_block_is_a_half_twist(self, m, low):
        e = BraidWord.identity(m)
        block = Factorization(m, (BlockFactor(e, low, low + 1, 2),))
        half = Factorization(m, (sf(m, low, low + 1, exp=2),))
        assert canonical_key(block) == canonical_key(half)
        assert hm_invariants(block) == hm_invariants(half)
        res = hurwitz_equivalent(block, half)
        assert res.verdict is Verdict.EQUIVALENT
        assert res.moves == ()


class TestCoreCycleType:
    def test_closed_form_matches_words(self):
        from braidmono.braid import delta_word, half_twist_word, permutation_of, power
        from braidmono.factorization import _core_cycle_type

        for m in range(2, 7):
            for low in range(1, m):
                for high in range(low + 1, m + 1):
                    for exponent in range(1, 6):
                        half = half_twist_word(HalfTwist(m, low, high))
                        block = delta_word(m, low, high)
                        for kind, core in (("halftwist", half), ("block", block)):
                            want = permutation_of(power(core, exponent)).cycle_type()
                            key = (kind, m, low, high, exponent)
                            assert _core_cycle_type(key) == want, key


@pytest.mark.parametrize("factor, label", [
    (sf(4, 1, 3, exp=3), ("halftwist", 3, (2, 1, 1))),
    (BlockFactor(BraidWord.identity(4), 2, 3, 1), ("halftwist", 1, (2, 1, 1))),
    (BlockFactor(BraidWord.identity(4), 1, 3, 2), ("blocktwist", 3, 2, (1, 1, 1, 1))),
])
def test_with_conjugator_and_class_label(factor, label):
    """Both record kinds share one `with_conjugator` and one `class_label`:
    a moved record, which carries its conjugator's form, keeps its core and
    label under a new conjugator, carries no form, and is validated."""
    moved = hurwitz_move(Factorization(4, (sf(4, 1, 2), factor)), 1).factors[0]
    assert moved._conj_raw is not None
    w = BraidWord(4, (3, -1, 2))
    fresh = moved.with_conjugator(w)
    assert type(fresh) is type(factor) and fresh.conjugator == w
    assert fresh == factor.with_conjugator(w)
    assert fresh.core_word() == factor.core_word()
    assert fresh._conj_raw is None and fresh._element_raw is None
    assert factor.class_label() == moved.class_label() == fresh.class_label() == label
    with pytest.raises(BraidError):
        factor.with_conjugator(BraidWord.identity(2))


class TestCanonicalKey:
    def test_deterministic(self, b3_factorization):
        assert canonical_key(b3_factorization) == canonical_key(b3_factorization)

    def test_conjugator_spelling_irrelevant(self):
        # s1 s2 s1^-1 and s2^-1 s1 s2 denote the same conjugator braid
        f1 = sf(3, 2, 3, conj=(1, 2, -1))
        f2 = sf(3, 2, 3, conj=(-2, 1, 2))
        assert canonical_key(Factorization(3, (f1,))) == canonical_key(
            Factorization(3, (f2,))
        )

    def test_every_move_changes_key(self, b3_factorization):
        base = canonical_key(b3_factorization)
        for k in range(1, 6):
            assert canonical_key(hurwitz_move(b3_factorization, k)) != base


class TestEquivalence:
    def test_one_move_certificate(self, b3_factorization):
        res = hurwitz_equivalent(b3_factorization, hurwitz_move(b3_factorization, 2))
        assert res.verdict is Verdict.EQUIVALENT
        assert len(res.moves) == 1

    def test_certificate_replays(self, rng, b3_factorization):
        F = b3_factorization
        G = F
        for _ in range(12):
            k = rng.randint(1, 5)
            G = hurwitz_move(G, k) if rng.random() < 0.5 else hurwitz_move_inverse(G, k)
        res = hurwitz_equivalent(F, G, budget=200_000)
        assert res.verdict is Verdict.EQUIVALENT
        assert canonical_key(apply_moves(F, res.moves)) == canonical_key(G)

    def test_symmetry(self, b3_factorization):
        G = hurwitz_move(hurwitz_move(b3_factorization, 1), 3)
        r1 = hurwitz_equivalent(b3_factorization, G)
        r2 = hurwitz_equivalent(G, b3_factorization)
        assert r1.verdict is r2.verdict is Verdict.EQUIVALENT

    def test_length_mismatch(self, b3_factorization):
        short = Factorization(3, b3_factorization.factors[:5])
        res = hurwitz_equivalent(b3_factorization, short)
        assert res.verdict is Verdict.NOT_EQUIVALENT
        assert "length" in res.witness

    def test_multiset_witness(self, b3_factorization):
        other = Factorization(
            3,
            b3_factorization.factors[:4]
            + (sf(3, 1, 2, exp=2), sf(3, 2, 3)),
        )
        res = hurwitz_equivalent(b3_factorization, other)
        assert res.verdict is Verdict.NOT_EQUIVALENT

    def test_class_label_witness(self):
        # Z^1 Z^3 and Z^2 Z^2 in B_2 are both Z^4, with different labels
        F = Factorization(2, (sf(2, 1, 2), sf(2, 1, 2, exp=3)))
        G = Factorization(2, (sf(2, 1, 2, exp=2), sf(2, 1, 2, exp=2)))
        assert product_nf(F) == product_nf(G)
        res = hurwitz_equivalent(F, G)
        assert res.verdict is Verdict.NOT_EQUIVALENT
        assert res.witness == "factor class multisets differ"

    def test_product_witness_and_symmetry(self):
        F = Factorization(3, (sf(3, 1, 2), sf(3, 2, 3)))
        G = Factorization(3, (sf(3, 1, 2), sf(3, 1, 2)))
        res = hurwitz_equivalent(F, G)
        assert res.verdict is Verdict.NOT_EQUIVALENT
        assert "product" in res.witness
        assert hurwitz_equivalent(G, F).verdict is Verdict.NOT_EQUIVALENT

    def test_inconclusive_budget(self, b3_factorization):
        # a tiny budget cannot even hold the scrambled pair's neighborhoods
        G = b3_factorization
        for k in (1, 2, 3, 4, 5, 1, 2, 3):
            G = hurwitz_move(G, k)
        res = hurwitz_equivalent(b3_factorization, G, budget=5)
        assert res.verdict in (Verdict.INCONCLUSIVE, Verdict.EQUIVALENT)
        if res.verdict is Verdict.INCONCLUSIVE:
            assert res.explored >= 5

    def test_disjoint_orbits_detected(self):
        # (s1, s1) in B_2 has a one-element orbit; any other degree-2 pair
        # with the same product but different key is unreachable
        F = Factorization(2, (sf(2, 1, 2), sf(2, 1, 2)))
        G = Factorization(
            2, (sf(2, 1, 2, conj=(1,)), sf(2, 1, 2, conj=(-1,)))
        )
        res = hurwitz_equivalent(F, G)
        # conjugating by s1 is trivial around s1 itself: same keys
        assert res.verdict is Verdict.EQUIVALENT


class TestOrbit:
    def test_single_factor(self):
        res = orbit_enumerate(Factorization(2, (sf(2, 1, 2),)))
        assert len(res.keys) == 1 and res.exhausted

    def test_commuting_pair_fixed(self):
        res = orbit_enumerate(Factorization(2, (sf(2, 1, 2), sf(2, 1, 2))))
        assert len(res.keys) == 1 and res.exhausted

    def test_budget_cut(self, b3_factorization):
        res = orbit_enumerate(b3_factorization, budget=50)
        assert len(res.keys) == 50 and not res.exhausted

    def test_b3_orbit_regression(self, b3_factorization):
        # the orbit is not exhausted within this budget; the exact count at
        # the deterministic cutoff is frozen as a regression value
        res = orbit_enumerate(b3_factorization, budget=2000)
        assert not res.exhausted
        assert len(res.keys) == 2000


def element_fold(fact):
    """The product as the left fold over the factors' element forms."""
    out = garside.RAW_IDENTITY
    for f in fact.factors:
        out = garside.raw_multiply(fact.strands, out, fz._element_raw(f))
    return out


def tangent_family(m):
    """y = i x + i^2, i = 1..m: double points only, many sharing an x."""
    return LineArrangement.from_pairs([(i, i * i) for i in range(1, m + 1)])


def pencil_arrangement(k):
    """k lines through the origin plus two generic lines."""
    pairs = [(Fraction(s), Fraction(0)) for s in range(1, k + 1)]
    pairs += [(Fraction(-1), Fraction(7)), (Fraction(-2), Fraction(-5, 2))]
    return LineArrangement.from_pairs(pairs)


def random_walk(rng, fact, moves):
    for _ in range(moves):
        k = rng.randint(1, len(fact.factors) - 1)
        move = hurwitz_move if rng.random() < 0.5 else hurwitz_move_inverse
        fact = move(fact, k)
    return fact


def parsed_golden_factorizations():
    names = []
    for path in sorted(GOLDEN.glob("*.fac")):
        try:
            parse_factorization(path.read_text())
        except ParseError:
            continue
        names.append(path.name)
    return names


def assert_exact(fact):
    """The product is the left fold over the factors' elements, and the
    `Delta^2` answer is the fold's."""
    m = fact.strands
    fold = element_fold(fact)
    assert fz._product_raw(fact) == fold
    expected = fact.degree() == m * (m - 1) and (m == 1 or fold == (2, ()))
    assert is_delta2_factorization(fact) == expected
    return expected


def small_integer_arrangement(rng, m):
    """m lines with distinct small integer slopes, so that several often
    meet in one point."""
    while True:
        arr = LineArrangement.from_pairs(
            zip(rng.sample(range(-6, 7), m), (rng.randint(-3, 3) for _ in range(m))))
        try:
            singular_points(arr)
        except ArrangementError:
            continue
        return arr


def count_inverses(monkeypatch, fact):
    """The product of `fact`, and the `raw_inverse` calls it took."""
    calls = 0

    def counting(m, raw):
        nonlocal calls
        calls += 1
        return inverse(m, raw)

    inverse = fz.raw_inverse
    monkeypatch.setattr(fz, "raw_inverse", counting)
    got = fz._product_raw(fact)
    monkeypatch.setattr(fz, "raw_inverse", inverse)
    return got, calls


class TestTelescopedProduct:
    """`_product_raw` multiplies c_1 z_1 (c_1^-1 c_2) z_2 ... z_n c_n^-1; it
    must give the fold over the whole elements c_i z_i c_i^-1.  A run whose
    cores are positive enters as x = c z; when the previous conjugator's
    form is a prefix of x's at the same Delta power, the step is the rest
    of x's factors, with no inverse."""

    def test_sweeps(self, rng):
        arrangements = [random_generic_arrangement(rng, m) for m in (2, 3, 5, 8, 11)]
        arrangements += [tangent_family(m) for m in (3, 6, 12)]
        arrangements += [pencil_arrangement(k) for k in (3, 4, 5)]
        for arr in arrangements:
            for expand_blocks in (False, True):
                fact = braid_monodromy(arr, expand_blocks=expand_blocks)
                got = fz._product_raw(fact)
                assert all(f._element_raw is None for f in fact.factors)
                assert got == element_fold(fact) == (2, ())

    def test_regenerations(self, rng):
        sweeps = [
            braid_monodromy(random_generic_arrangement(rng, n), expand_blocks=True)
            for n in (2, 3, 4)
        ]
        facts = [regenerate(fact) for fact in sweeps]
        conj = BraidWord(3, (2, -1, 2))
        facts.append(regenerate(Factorization(3, (
            StructuredFactor(conj, HalfTwist(3, 1, 3), 1),
            StructuredFactor(conj, HalfTwist(3, 2, 3), 4),
        ))))
        partial = Factorization(3, standard_b3_factorization().factors[:4])
        facts.append(partial)
        completed = complete_deficit(partial, budget=5000).completed
        assert completed is not None
        facts.append(completed)
        for fact in facts:
            assert fz._product_raw(fact) == element_fold(fact)
        assert fz._product_raw(completed) == (2, ())

    @pytest.mark.parametrize("m", [3, 4])
    def test_after_random_moves(self, rng, m):
        if m == 3:
            start = standard_b3_factorization()
        else:
            start = braid_monodromy(random_generic_arrangement(rng, 4))
        for _ in range(3):
            fact = random_walk(rng, start, 50)
            assert fz._product_raw(fact) == element_fold(fact) == (2, ())

    @pytest.mark.parametrize("name", ["regen3.fac", "regen4.fac", "regen5.fac", "regen6.fac"])
    def test_golden_regenerations(self, name):
        """A node's four rows share one conjugator, so their cores enter the
        product as one run; the Burau images of the product and of the
        factors' words agree."""
        fact = parse_factorization((GOLDEN / name).read_text())
        got = fz._product_raw(fact)
        assert got == element_fold(fact)
        words = [x for f in fact.factors for x in oracle.factor_letters(f)]
        assert oracle.words_agree(fact.strands, words, garside.raw_to_letters(fact.strands, got))

    @pytest.mark.parametrize("m", [4, 5])
    def test_runs_of_separate_records(self, rng, m):
        """Runs of records that each spell an equal conjugator word."""
        for _ in range(10):
            factors = []
            for _ in range(rng.randint(1, 6)):
                conj = random_word(rng, m, 10).letters
                for _ in range(rng.randint(1, 4)):
                    a = rng.randint(1, m - 1)
                    factors.append(sf(m, a, rng.randint(a + 1, m), rng.randint(1, 4), conj))
            fact = Factorization(m, tuple(factors))
            assert fz._product_raw(fact) == element_fold(fact)

    @pytest.mark.parametrize("m", [4, 5])
    def test_runs_that_multiply_to_the_full_twist(self, rng, m):
        """(s_1 ... s_{m-1})^m cut into runs, each conjugated by a power of
        its own product, which leaves the product Delta^2."""
        gens = list(range(1, m)) * m
        for _ in range(10):
            cuts = sorted(rng.sample(range(1, len(gens)), rng.randint(1, 5)))
            factors = []
            for lo, hi in zip([0, *cuts], [*cuts, len(gens)]):
                run, k = tuple(gens[lo:hi]), rng.choice((-1, 1, 2))
                conj = run * k if k > 0 else tuple(-x for x in reversed(run))
                factors += [sf(m, i, i + 1, 1, conj) for i in run]
            fact = Factorization(m, tuple(factors))
            assert fz._product_raw(fact) == element_fold(fact) == (2, ())
            assert oracle.is_full_twist(m, fact.factors)

    def test_empty_and_single(self, rng):
        assert fz._product_raw(Factorization(4)) == garside.RAW_IDENTITY
        for _ in range(20):
            conj = random_word(rng, 4, 12).letters
            f = sf(4, 1, rng.randint(2, 4), rng.randint(1, 4), conj)
            fact = Factorization(4, (f,))
            assert fz._product_raw(fact) == element_fold(fact) == fz._element_raw(f)

    def test_tangent_family_32(self):
        assert is_delta2_factorization(braid_monodromy(tangent_family(32)))

    def test_golden_records(self):
        names = parsed_golden_factorizations()
        assert {"b3walk.fac", "sweep4walk.fac", "sweep5walk.fac", "regen3.fac",
                "regen4.fac", "regen5.fac", "regen6.fac", "pencil.fac"} <= set(names)
        answers = {
            name: assert_exact(parse_factorization((GOLDEN / name).read_text()))
            for name in names
        }
        assert {name for name, full in answers.items() if not full} == {
            "regen3.fac", "regen4.fac", "regen5.fac", "regen6.fac", "tangency.fac"}

    @pytest.mark.parametrize("expand_blocks", [False, True])
    def test_random_sweeps(self, rng, expand_blocks):
        blocks = 0
        for m in range(2, 11):
            for arr in (random_generic_arrangement(rng, m), small_integer_arrangement(rng, m)):
                fact = braid_monodromy(arr, expand_blocks=expand_blocks)
                blocks += any(isinstance(f, BlockFactor) for f in fact.factors)
                assert assert_exact(fact)
        assert bool(blocks) != expand_blocks

    def test_regenerated_sweep4(self):
        fact = regenerate(parse_factorization((GOLDEN / "sweep4.fac").read_text()))
        runs = [len(list(run)) for _, run in groupby(fact.factors, fz._conjugator_raw)]
        assert runs == [4] * 6
        assert not assert_exact(fact)

    def test_shared_conjugators_apart(self):
        """sigma_1 sigma_2 repeated three times, where every sigma_1 sits
        under sigma_1 and every sigma_2 is sigma_1 under Delta, spelled two
        ways, so equal conjugators recur but never side by side."""
        delta_words = [(1, 2, 1), (2, 1, 2)]
        factors = []
        for k in range(3):
            factors += [sf(3, 1, 2, 1, (1,)), sf(3, 1, 2, 1, delta_words[k % 2])]
        fact = Factorization(3, tuple(factors))
        runs = [conj for conj, _ in groupby(fact.factors, fz._conjugator_raw)]
        assert len(runs) == 6 and len(set(runs)) == 2
        assert assert_exact(fact)

    @pytest.mark.parametrize("m", [3, 5])
    def test_random_shared_conjugators_apart(self, rng, m):
        for _ in range(10):
            conjs = [random_word(rng, m, 10).letters for _ in range(3)]
            factors = []
            for k in range(rng.randint(3, 8)):
                a = rng.randint(1, m - 1)
                factors.append(sf(m, a, rng.randint(a + 1, m), rng.randint(1, 4), conjs[k % 3]))
            assert_exact(Factorization(m, tuple(factors)))

    def test_tangent_family_check_slides_few_per_factor(self, monkeypatch):
        """The check of the 24-line tangent family slides at most 3 times per
        factor, plus 24 for the cores normalized on first use: no step pushes
        the near-Delta factor of an inverse half-twist across the running
        product."""
        slides = 0

        def counting(fa, fb):
            nonlocal slides
            slides += 1
            return slide(fa, fb)

        slide = garside._slide_ids
        fact = braid_monodromy(tangent_family(24))
        monkeypatch.setattr(garside, "_slide_ids", counting)
        monkeypatch.setattr(fz, "_CORE_RAWS", {})
        assert is_delta2_factorization(fact)
        assert len(fact.factors) == 276
        assert slides <= 3 * len(fact.factors) + 24

    @pytest.mark.parametrize("expand_blocks", [False, True])
    def test_sweeps_take_two_inverses(self, rng, monkeypatch, expand_blocks):
        """Both are inverses of the identity: the first run's x holds a Delta,
        and the last conjugator is empty.  One per run would be 66 at m = 12
        and 276 at m = 24.  An expanded multiple point's run holds node cores
        Z_{s,t}^2 with t > s + 1, whose forms have Delta power -1, so it
        takes one inverse more."""
        arrangements = [tangent_family(12), tangent_family(24),
                        random_generic_arrangement(rng, 9), pencil_arrangement(5)]
        for arr in arrangements:
            blocks = sum(isinstance(f, BlockFactor) for f in braid_monodromy(arr).factors)
            fact = braid_monodromy(arr, expand_blocks=expand_blocks)
            got, calls = count_inverses(monkeypatch, fact)
            assert got == (2, ())
            assert calls <= 2 + (blocks if expand_blocks else 0)
        assert blocks == 1

    @pytest.mark.parametrize("name", ["sweep6.fac", "tangent12.fac"])
    def test_regenerations_take_one_inverse_per_run(self, monkeypatch, name):
        """Every run of a regenerated sweep holds a band twist whose form is
        negative, so every step is (prev^-1 conj) times the run's cores: one
        inverse per run, and the slides of that fold."""
        fact = regenerate(parse_factorization((GOLDEN / name).read_text()))
        got, calls = count_inverses(monkeypatch, fact)
        assert got == element_fold(fact)
        assert calls == len([*groupby(fact.factors, fz._conjugator_raw)]) + 1

        def steps_fold(fact):
            m = fact.strands
            out = prev = garside.RAW_IDENTITY
            for conj, run in groupby(fact.factors, fz._conjugator_raw):
                step = garside.raw_multiply(m, garside.raw_inverse(m, prev), conj)
                for f in run:
                    step = garside.raw_multiply(m, step, fz._core_raw(f))
                out, prev = garside.raw_multiply(m, out, step), conj
            return garside.raw_multiply(m, out, garside.raw_inverse(m, prev))

        slides = []

        def counting(fa, fb):
            slides[-1] += 1
            return slide(fa, fb)

        slide = garside._slide_ids
        monkeypatch.setattr(garside, "_slide_ids", counting)
        for product_raw in (fz._product_raw, steps_fold):
            slides.append(0)
            assert product_raw(fact) == got
        assert slides[0] == slides[1] > 0

    @pytest.mark.parametrize("m", [3, 6])
    def test_slice_at_a_negative_power(self, rng, monkeypatch, m):
        """Delta^-1 c_i z_i c_i^-1 Delta multiply to tau(Delta^2) = Delta^2,
        and each step is sliced at Delta power -1."""
        sweep = braid_monodromy(random_generic_arrangement(rng, m))
        fact = Factorization(m, tuple(
            f.with_conjugator(compose(invert(delta_word(m)), f.conjugator)) for f in sweep.factors))
        assert {fz._conjugator_raw(f)[0] for f in fact.factors} == {-1}
        got, calls = count_inverses(monkeypatch, fact)
        assert got == element_fold(fact) == (2, ())
        assert calls <= 2

    @pytest.mark.parametrize("k", [-1, 1, 2])
    def test_prefix_at_another_power_is_not_sliced(self, rng, k):
        """Run 2's x = Delta^k c z has c's factor ids in front, but not its
        Delta power, so it is not a slice of c's form."""
        m = 4
        power = delta_word(m).letters * k if k > 0 else invert(delta_word(m)).letters
        seen = 0
        for _ in range(20):
            conj = random_word(rng, m, 8).letters
            a = rng.randint(1, m - 1)
            fact = Factorization(m, (sf(m, a, a + 1, 1, conj),
                                     sf(m, a, a + 1, rng.randint(1, 3), power + conj)))
            prev, (second,) = fz._conjugator_raw(fact.factors[0]), fact.factors[1:]
            x = garside.raw_multiply(m, fz._conjugator_raw(second), fz._core_raw(second))
            seen += x[1][: len(prev[1])] == prev[1] and x[0] != prev[0]
            assert fz._product_raw(fact) == element_fold(fact)
        assert seen

    @pytest.mark.parametrize("m", [5, 8])
    def test_scrambled_sweeps(self, rng, m):
        """Positive cores whose runs do not telescope."""
        for _ in range(5):
            factors = list(braid_monodromy(random_generic_arrangement(rng, m)).factors)
            rng.shuffle(factors)
            fact = Factorization(m, tuple(factors))
            assert fz._product_raw(fact) == element_fold(fact)

    @pytest.mark.parametrize("m", [4, 7])
    def test_runs_alternate_positive_and_negative_cores(self, rng, monkeypatch, m):
        """A sweep in which every other factor shares its conjugator with a
        band twist Z_{1,3}, whose form is negative: those runs take the
        previous conjugator's inverse, and the run after each one is still a
        slice of the conjugator it hands on."""
        sweep = braid_monodromy(random_generic_arrangement(rng, m))
        factors = []
        for i, f in enumerate(sweep.factors):
            factors.append(f)
            if i % 2 == 0:
                factors.append(sf(m, 1, 3, rng.randint(1, 2), f.conjugator.letters))
        fact = Factorization(m, tuple(factors))
        signs = [min(fz._core_raw(f)[0] for f in run) >= 0
                 for _, run in groupby(fact.factors, fz._conjugator_raw)]
        assert signs == [i % 2 == 1 for i in range(len(sweep.factors))]
        got, calls = count_inverses(monkeypatch, fact)
        assert got == element_fold(fact)
        assert calls <= signs.count(False) + 2
