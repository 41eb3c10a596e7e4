"""Raw Garside forms carried by factor records.

Each `StructuredFactor` / `BlockFactor` carries its conjugator's and its
element's raw forms, filled on first use or handed over by the sweep and
the Hurwitz moves.  These tests check the handed-over forms against the
spelled words, that the forms never leak into identity or into a rebuilt
record, and that they die with their record.
"""

import gc
import random
import weakref
from fractions import Fraction

import pytest

import braidmono.factorization as fz
from braidmono import (
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
from braidmono.garside import raw_inverse, raw_of_word
from braidmono.textio import format_factorization, parse_factorization
from conftest import random_generic_arrangement, standard_b3_factorization


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
                carried = f._conj_raws
                assert carried is not None
                assert carried[0] == raw_of_word(m, free_reduce(f.conjugator.letters))
                assert carried[1] == raw_of_word(m, invert(f.conjugator).letters)

    def test_block_nodes_share_the_block_pair(self):
        pencil = LineArrangement.from_pairs([(s, 0) for s in range(1, 5)] + [(-1, 7)])
        blocks = braid_monodromy(pencil).factors
        nodes = braid_monodromy(pencil, expand_blocks=True).factors
        assert is_delta2_factorization(Factorization(pencil.m, nodes))
        pairs = {f.conjugator: f._conj_raws for f in blocks}
        for f in nodes:
            assert f._conj_raws == pairs[f.conjugator]


class TestMovedForms:
    def test_moved_conjugator_is_the_spelled_one(self):
        fact = walk(standard_b3_factorization(), random.Random(11), 200)
        for f in fact.factors:
            if f._conj_raws is not None:
                assert f._conj_raws[0] == raw_of_word(3, f.conjugator.letters)

    def test_key_survives_a_text_round_trip(self):
        fact = walk(standard_b3_factorization(), random.Random(5), 500)
        reread = parse_factorization(format_factorization(fact))
        assert all(f._conj_raws is None and f._element_raws is None for f in reread.factors)
        assert canonical_key(reread) == canonical_key(fact)
        assert is_delta2_factorization(reread)

    def test_with_conjugator_starts_afresh(self):
        f = walk(standard_b3_factorization(), random.Random(2), 40).factors[0]
        fz._factor_raws(f)
        w = BraidWord(3, (1, -2, 1))
        g = f.with_conjugator(w)
        assert g._conj_raws is None and g._element_raws is None
        assert fz._conjugator_raws(g)[0] == raw_of_word(3, w.letters)
        assert fz._conjugator_raws(g)[0] != fz._conjugator_raws(f)[0]
        want = raw_of_word(3, free_reduce(w.letters + f.core_word().letters + invert(w).letters))
        assert fz._factor_raws(g)[0] == want


class TestRegenerationHandOver:
    def test_rows_carry_the_cabled_pair(self):
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
        for fact in facts:
            out = regenerate(fact).factors
            m = 2 * fact.strands
            carried = [f for f in out if f._conj_raws is not None]
            assert len(carried) >= len(fact.factors)
            for f in carried:
                raw = raw_of_word(m, free_reduce(f.conjugator.letters))
                assert f._conj_raws == (raw, raw_inverse(m, raw))
            # the rows of one input factor share one pair
            assert len({id(f._conj_raws) for f in carried}) == len(fact.factors)


class TestIdentity:
    def test_forms_stay_out_of_eq_hash_repr(self):
        moved = walk(standard_b3_factorization(), random.Random(4), 30).factors[2]
        bare = moved.with_conjugator(moved.conjugator)
        fz._factor_raws(moved)
        assert moved._element_raws is not None and bare._element_raws is None
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
