"""Raw Garside forms carried by factor records.

Each `StructuredFactor` / `BlockFactor` carries its conjugator's form,
handed over by its producer (the sweep, `expand_block_factor`, a Hurwitz
move, every regeneration row) or filled per factorization by one walk of
the conjugators' prefix trie, and its element's form with that form's
inverse.  These tests check every handed-over or filled form against the
spelled word, that the walk pushes each trie edge once, that the forms
never leak into identity or into a rebuilt record, and that they die with
their record.
"""

import gc
import random
import weakref
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import pytest

import braidmono.factorization as fz
from braidmono import (
    BlockFactor,
    BraidWord,
    Factorization,
    HalfTwist,
    LineArrangement,
    StructuredFactor,
    braid_monodromy,
    canonical_key,
    free_reduce,
    full_twist,
    hurwitz_move,
    hurwitz_move_inverse,
    invert,
    is_delta2_factorization,
    regenerate,
)
from braidmono import regeneration as rg
from braidmono.arrangements import expand_block_factor
from braidmono.garside import raw_inverse, raw_multiply, raw_of_word
from braidmono.textio import format_factorization, parse_factorization
from conftest import random_generic_arrangement, standard_b3_factorization, trie_edges

GOLDEN = Path(__file__).resolve().parent / "golden"


def walk(fact, rng, moves):
    for _ in range(moves):
        k = rng.randint(1, len(fact.factors) - 1)
        fact = hurwitz_move(fact, k) if rng.random() < 0.5 else hurwitz_move_inverse(fact, k)
    return fact


def sweep_inputs():
    rng = random.Random(6)
    arrs = [random_generic_arrangement(rng, m) for m in (2, 3, 5, 8, 12) for _ in range(2)]
    # y = i x + i^2: many points share an x-coordinate
    arrs.append(LineArrangement.from_pairs([(i, i * i) for i in range(10)]))
    pencil = [(Fraction(s), Fraction(0)) for s in range(1, 5)]
    pencil += [(Fraction(-1), Fraction(7)), (Fraction(-2), Fraction(-5, 2))]
    arrs.append(LineArrangement.from_pairs(pencil))
    arrs.append(LineArrangement.from_pairs([(0, 0), (0, 1), (1, 0), (2, 5), (-1, 3)]))
    return arrs


class TestSweepHandOver:
    @pytest.mark.parametrize("expand_blocks", [False, True])
    def test_carried_conjugator_is_the_spelled_one(self, expand_blocks):
        for arr in sweep_inputs():
            m = arr.m
            for f in braid_monodromy(arr, expand_blocks=expand_blocks).factors:
                carried = f._conj_raw
                assert carried is not None
                assert carried == raw_of_word(m, free_reduce(f.conjugator.letters))
                assert raw_inverse(m, carried) == raw_of_word(m, invert(f.conjugator).letters)

    def test_block_nodes_share_the_block_form(self):
        pencil = LineArrangement.from_pairs([(s, 0) for s in range(1, 5)] + [(-1, 7)])
        blocks = braid_monodromy(pencil).factors
        nodes = braid_monodromy(pencil, expand_blocks=True).factors
        assert is_delta2_factorization(Factorization(pencil.m, nodes))
        forms = {f.conjugator: f._conj_raw for f in blocks}
        for f in nodes:
            assert f._conj_raw == forms[f.conjugator]

    @pytest.mark.parametrize("carried", [False, True])
    def test_expand_block_factor_hands_over_the_form(self, carried):
        """Each node carries the block's conjugator form, whether the block
        was handed one or fills it from its word."""
        conj = BraidWord(5, (2, -1, 3, 4, -2))
        block = BlockFactor(conj, 2, 5)
        if carried:
            fz._conjugator_raw(block)
        nodes = expand_block_factor(block)
        assert len(nodes) == 6
        want = raw_of_word(5, free_reduce(conj.letters))
        assert block._conj_raw == want
        assert all(node._conj_raw is block._conj_raw for node in nodes)


class TestMovedForms:
    def test_moved_conjugator_is_the_spelled_one(self):
        """Each move hands the moved record the form of its new conjugator,
        a c_b forward and b^-1 c_a inverse, here spelled from words."""
        rng = random.Random(11)
        fact = standard_b3_factorization()
        for _ in range(200):
            k = rng.randint(1, len(fact.factors) - 1)
            a, b = fact.factors[k - 1], fact.factors[k]
            if rng.random() < 0.5:
                fact = hurwitz_move(fact, k)
                word = fz.expand(a).letters + b.conjugator.letters
                moved = fact.factors[k - 1]
            else:
                fact = hurwitz_move_inverse(fact, k)
                word = invert(fz.expand(b)).letters + a.conjugator.letters
                moved = fact.factors[k]
            assert "conjugator" not in vars(moved)
            assert moved._conj_raw == raw_of_word(3, free_reduce(word))
            assert moved._conj_raw == raw_of_word(3, moved.conjugator.letters)

    def test_key_survives_a_text_round_trip(self):
        fact = walk(standard_b3_factorization(), random.Random(5), 500)
        reread = parse_factorization(format_factorization(fact))
        assert all(f._conj_raw is None and f._element_raw is None for f in reread.factors)
        assert canonical_key(reread) == canonical_key(fact)
        assert is_delta2_factorization(reread)

    def test_with_conjugator_starts_afresh(self):
        f = walk(standard_b3_factorization(), random.Random(2), 40).factors[0]
        fz._element_raw(f)
        w = BraidWord(3, (1, -2, 1))
        g = f.with_conjugator(w)
        assert g._conj_raw is None and g._element_raw is None
        assert fz._conjugator_raw(g) == raw_of_word(3, w.letters)
        assert fz._conjugator_raw(g) != fz._conjugator_raw(f)
        want = raw_of_word(3, free_reduce(w.letters + f.core_word().letters + invert(w).letters))
        assert fz._element_raw(g) == want


def spelled(m, *words):
    """Spelled records with no carried form, one per conjugator word."""
    return Factorization(m, tuple(
        StructuredFactor(BraidWord(m, w), HalfTwist(m, 1 + i % (m - 1), m), 1)
        for i, w in enumerate(words)))


class TestWalkFill:
    """Records with no carried form get it from one prefix-trie walk over
    the factorization; every filled form is that of the reduced word."""

    @staticmethod
    def assert_filled(fact):
        assert all(f._conj_raw is None for f in fact.factors)
        canonical_key(fact)
        m = fact.strands
        for f in fact.factors:
            assert f._conj_raw == raw_of_word(m, free_reduce(f.conjugator.letters))

    @pytest.mark.parametrize("name", ["sweep16.fac", "sweep5walk.fac", "b3walk.fac",
                                      "regen6.fac"])
    def test_parsed_golden_files(self, name):
        self.assert_filled(parse_factorization((GOLDEN / name).read_text()))

    @pytest.mark.parametrize("words", [
        pytest.param([(1, 2, 3), (1, 2, 4), (1, 3)], id="resume-at-decreasing-depths"),
        pytest.param([(2, 1), (), (2, 1), (2, 1, 3, -4), ()], id="duplicates-empty-prefix"),
        pytest.param([(1, -1, 2), (1, 2, -1), (-3, -2, 1), (-3, 2, 2, -2)], id="unreduced"),
        pytest.param([(-4, -3, -2, -1), (-4, -3, 1), (-4, 2, -1), (4, 4)], id="negative"),
    ])
    def test_tries_in_b5(self, words):
        self.assert_filled(spelled(5, *words))

    def test_only_missing_forms_are_filled(self):
        fact = spelled(5, (1, 2, 3), (1, 2, 4), (1, 3))
        kept = fz._conjugator_raw(fact.factors[1])
        fz._conjugator_raws(5, fact.factors)
        assert fact.factors[1]._conj_raw is kept
        assert fact.factors[2]._conj_raw == raw_of_word(5, (1, 3))


def test_sweep16_check_pushes_each_trie_edge_once(monkeypatch):
    """The `Delta^2` check of the parsed 16-line sweep normalizes each edge
    of its conjugators' trie once, plus each distinct core: 149 letters,
    where a word-by-word fill pushed 7,170."""
    letters = []

    def counting(m, word):
        letters.append(len(word))
        return raw_of_word(m, word)

    fact = parse_factorization((GOLDEN / "sweep16.fac").read_text())
    words = [f.conjugator.letters for f in fact.factors]
    cores = {fz._core_key(f): len(f.core_word()) for f in fact.factors}
    assert (sum(map(len, words)), trie_edges(words), sum(cores.values())) == (7140, 119, 30)
    monkeypatch.setattr(fz, "raw_of_word", counting)
    monkeypatch.setattr(fz, "_CORE_RAWS", {})
    assert is_delta2_factorization(fact)
    assert sum(letters) == 119 + 30 <= 150


def regeneration_inputs():
    rng = random.Random(8)
    facts = [
        braid_monodromy(random_generic_arrangement(rng, n), expand_blocks=True)
        for n in (2, 3, 4, 5)
    ]
    # a branch point and a tangency with conjugated cores, for rules I and III
    conj = BraidWord(3, (2, -1, 2))
    facts.append(Factorization(3, (
        StructuredFactor(conj, HalfTwist(3, 1, 3), 1),
        StructuredFactor(conj, HalfTwist(3, 2, 3), 4),
    )))
    return facts


class TestRegenerationHandOver:
    def test_every_row_carries_its_form(self):
        """Every row of every rule, the pass-through and the Rule III twist
        rows included, carries the form of its spelled conjugator; the rows
        on the cabled word share one form and one word object."""
        rules_seen = set()
        for fact in regeneration_inputs():
            m = 2 * fact.strands
            for factor in fact.factors:
                cabled = rg.IndexDoubling(fact.strands).word(factor.conjugator)
                for rule in (rg._RULE_BY_EXPONENT[factor.exponent], rg.Rule.PASS):
                    rules_seen.add(rule)
                    rows = rg._apply(rule, factor)
                    assert len(rows) == len(rg._RULES[rule][1])
                    for row in rows:
                        assert row._conj_raw is not None
                        spelled = free_reduce(row.conjugator.letters)
                        assert row._conj_raw == raw_of_word(m, spelled)
                    plain = [row for row in rows if row.conjugator == cabled]
                    assert len({id(row._conj_raw) for row in plain}) == 1
                    assert len({id(row.conjugator) for row in plain}) == 1
                    if rule is rg.Rule.TANGENCY:
                        assert len(plain) == 1  # the other two are twist rows
        assert rules_seen == set(rg.Rule)

    @pytest.mark.parametrize("name, edges, runs", [("sweep16.fac", 119, 120), (None, 3, 3)],
                             ids=["sweep16", "tangency"])
    def test_only_trie_edges_twists_and_cores_are_normalized(self, monkeypatch, name, edges,
                                                            runs):
        """Regeneration normalizes each edge of the B_n conjugators' trie
        once and one letter per twist row, never a cabled word.  The product
        that `complete_deficit` checks normalizes each distinct core once,
        and per run of rows under one conjugator it makes one step
        c_{i-1}^-1 c_i, one push of it, the run's core products and one
        push of theirs."""
        letters, products = [], []

        def counting(m, word):
            letters.append(len(word))
            return raw_of_word(m, word)

        def counting_multiply(m, a, b):
            products.append(m)
            return raw_multiply(m, a, b)

        fact = (parse_factorization((GOLDEN / name).read_text()) if name
                else regeneration_inputs()[-1])
        assert trie_edges([f.conjugator.letters for f in fact.factors]) == edges
        twists = sum(row[3] != 0 for f in fact.factors
                     for row in rg._RULES[rg._RULE_BY_EXPONENT[f.exponent]][1])
        monkeypatch.setattr(rg, "raw_of_word", counting)
        monkeypatch.setattr(fz, "raw_of_word", counting)
        monkeypatch.setattr(fz, "_CORE_RAWS", {})
        out = regenerate(fact)
        assert sum(letters) == edges + twists
        letters.clear()
        monkeypatch.setattr(fz, "raw_multiply", counting_multiply)
        fz._product_raw(out)
        cores = {fz._core_key(f): len(f.core_word()) for f in out.factors}
        assert sum(letters) == sum(cores.values())
        assert runs == len(list(groupby(fz._conjugator_raw(f) for f in out.factors)))
        assert len(products) <= len(out.factors) + 2 * runs + 1 < 3 * len(out.factors)


class TestIdentity:
    def test_forms_stay_out_of_eq_hash_repr(self):
        moved = walk(standard_b3_factorization(), random.Random(4), 30).factors[2]
        bare = moved.with_conjugator(moved.conjugator)
        fz._element_raw(moved)
        assert moved._element_raw is not None and bare._element_raw is None
        assert moved == bare and hash(moved) == hash(bare)
        assert repr(moved) == repr(bare)


def test_records_do_not_outlive_the_walk():
    """Only the records still in the factorization stay alive: no table
    keeps a record the walk has moved past."""
    rng = random.Random(3)
    fact = walk(standard_b3_factorization(), rng, 200)
    refs = [weakref.ref(f) for f in fact.factors]
    fact = walk(fact, rng, 200)
    gc.collect()
    for ref in refs:
        record = ref()
        assert record is None or any(record is f for f in fact.factors)


@pytest.mark.parametrize("m", range(2, 10))
def test_full_twist_raw_is_a_constant(m):
    assert raw_of_word(m, full_twist(m).letters) == fz._FULL_TWIST_RAW == (2, ())
