"""Records built by Hurwitz moves spell their conjugator words only when
read.  A moved record carries its conjugator's raw forms; its first read of
`conjugator`, directly or through eq, hash, repr, `dataclasses.replace` or
the text format, spells the word once from the carried form, and the result
is the record a move that spelled the word at once would have built."""

import dataclasses
import random

import pytest

import braidmono.factorization as fz
from braidmono import (
    BlockFactor,
    BraidError,
    BraidWord,
    Factorization,
    LineArrangement,
    StructuredFactor,
    apply_moves,
    braid_monodromy,
    canonical_key,
    hurwitz_move,
    hurwitz_move_inverse,
    is_delta2_factorization,
)
from braidmono.garside import raw_to_letters
from braidmono.textio import format_factorization
from conftest import standard_b3_factorization


def walk(fact, seed, moves=500):
    rng = random.Random(seed)
    for _ in range(moves):
        k = rng.randint(1, len(fact.factors) - 1)
        fact = hurwitz_move(fact, k) if rng.random() < 0.5 else hurwitz_move_inverse(fact, k)
    return fact


def block_sweep():
    """An unexpanded sweep output: a pencil of four lines is a block factor."""
    pencil = LineArrangement.from_pairs([(s, 0) for s in range(1, 5)] + [(-1, 7)])
    fact = braid_monodromy(pencil)
    assert any(isinstance(f, BlockFactor) for f in fact.factors)
    return fact


def is_lazy(factor):
    return "conjugator" not in vars(factor)


def eager_twin(factor):
    """The record a spelling move would build, made without reading
    `factor.conjugator`."""
    m = factor.strands
    word = BraidWord(m, raw_to_letters(m, factor._conj_raw))
    if isinstance(factor, StructuredFactor):
        return StructuredFactor(word, factor.base, factor.exponent)
    return BlockFactor(word, factor.low, factor.high, factor.exponent)


WALKS = [
    pytest.param(standard_b3_factorization, 21, id="b3"),
    pytest.param(block_sweep, 22, id="block-sweep"),
]


@pytest.mark.parametrize("start, seed", WALKS)
class TestMovedRecords:
    def test_conjugator_is_the_spelled_carried_form(self, start, seed):
        fact = walk(start(), seed)
        moved = [f for f in fact.factors if is_lazy(f)]
        assert moved
        if start is block_sweep:
            assert any(isinstance(f, BlockFactor) for f in moved)
        for f in moved:
            m = f.strands
            assert is_lazy(f)  # reading strands does not spell
            assert f.conjugator == BraidWord(m, raw_to_letters(m, f._conj_raw))
            assert not is_lazy(f)

    def test_identity_matches_eager_records(self, start, seed):
        fact = walk(start(), seed)
        for f in fact.factors:
            if not is_lazy(f):
                continue
            twin = eager_twin(f)
            assert is_lazy(f)
            assert f == twin and twin == f
            assert hash(f) == hash(twin)
            assert repr(f) == repr(twin)
            assert dataclasses.replace(f) == twin

    def test_each_read_path_spells(self, start, seed):
        reads = [
            lambda f: f == eager_twin(f),
            hash,
            repr,
            dataclasses.replace,
            lambda f: f.with_conjugator(BraidWord.identity(f.strands)) != f,
        ]
        for read in reads:
            f = next(g for g in walk(start(), seed, 100).factors if is_lazy(g))
            read(f)
            assert not is_lazy(f)

    def test_text_matches_eager_records(self, start, seed):
        fact = walk(start(), seed)
        eager = Factorization(
            fact.strands, tuple(eager_twin(f) if is_lazy(f) else f for f in fact.factors)
        )
        assert format_factorization(fact) == format_factorization(eager)
        assert canonical_key(fact) == canonical_key(eager)
        assert is_delta2_factorization(fact)

    def test_spelled_once_on_first_read(self, start, seed, monkeypatch):
        calls = []

        def counting(m, raw):
            calls.append(raw)
            return raw_to_letters(m, raw)

        fact = start()
        monkeypatch.setattr(fz, "raw_to_letters", counting)
        fact = walk(fact, seed)
        assert calls == []
        moved = [f for f in fact.factors if is_lazy(f)]
        for f in moved:
            f.conjugator
        assert len(calls) == len(moved)
        for f in fact.factors:
            f.conjugator
            repr(f)
        assert len(calls) == len(moved)

    def test_moves_on_moved_records(self, start, seed):
        """A lazy record moves again without being spelled, and its
        successors spell the same words as successors of its eager twin."""
        fact = walk(start(), seed)
        eager = Factorization(
            fact.strands, tuple(eager_twin(f) if is_lazy(f) else f for f in fact.factors)
        )
        lazy_next, eager_next = walk(fact, seed + 1, 50), walk(eager, seed + 1, 50)
        assert lazy_next == eager_next


def test_missing_attributes_still_raise():
    f = walk(standard_b3_factorization(), 3, 20).factors[0]
    assert not hasattr(f, "low")
    with pytest.raises(AttributeError):
        f.no_such_field
    g = block_sweep().factors[0]
    assert not hasattr(g, "base")


class TestApplyMovesDirection:
    @pytest.mark.parametrize("direction", [0, 7, 2, -3])
    def test_other_directions_are_rejected(self, direction):
        with pytest.raises(BraidError, match="direction"):
            apply_moves(standard_b3_factorization(), [(1, direction)])

    def test_unit_directions_replay(self):
        fact = standard_b3_factorization()
        assert apply_moves(fact, [(1, 1)]) == hurwitz_move(fact, 1)
        assert apply_moves(fact, [(1, -1)]) == hurwitz_move_inverse(fact, 1)
