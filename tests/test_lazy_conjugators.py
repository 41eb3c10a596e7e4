"""Records built by Hurwitz moves, by the sweep or by regeneration spell
their conjugator words only when read.  A moved record carries its
conjugator's raw forms; its first read of `conjugator`, directly or through
eq, hash, repr, `dataclasses.replace` or the text format, spells the word
once from the carried form, and the result is the record a move that
spelled the word at once would have built.  A sweep record spells, on its
first read, the concatenation of block half-twists that the sweep used to
spell at once; the nodes of an expanded block share their block's word.  A
regenerated factor's rows spell, on their first read, the 2-cable of the
factor's word that regeneration used to spell at once, one object for its
plain rows, and that word with the twist letter appended in a Rule III
twist row.  Records pickle, also into another process, whose kernel
numbers its ids in another order, and an unspelled record stays unspelled
through a pickle round trip."""

import dataclasses
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import braidmono.arrangements as arrangements
import braidmono.factorization as fz
import braidmono.regeneration as rg
from braidmono import (
    BlockFactor,
    BraidError,
    BraidWord,
    Factorization,
    HalfTwist,
    LineArrangement,
    StructuredFactor,
    apply_moves,
    braid_monodromy,
    canonical_key,
    complete_deficit,
    delta_word,
    free_reduce,
    hurwitz_move,
    hurwitz_move_inverse,
    is_delta2_factorization,
    regenerate,
    to_wiring_diagram,
)
from braidmono.garside import raw_of_word, raw_to_letters
from braidmono.textio import format_factorization
from conftest import random_generic_arrangement, standard_b3_factorization

TESTS = Path(__file__).resolve().parent


def walk(fact, seed, moves=500):
    rng = random.Random(seed)
    for _ in range(moves):
        k = rng.randint(1, len(fact.factors) - 1)
        fact = hurwitz_move(fact, k) if rng.random() < 0.5 else hurwitz_move_inverse(fact, k)
    return fact


def pencil_and_line():
    """A pencil of four lines through the origin, and one line off it."""
    return LineArrangement.from_pairs([(s, 0) for s in range(1, 5)] + [(-1, 7)])


def block_sweep():
    """An unexpanded sweep output: a pencil of four lines is a block factor."""
    fact = braid_monodromy(pencil_and_line())
    assert any(isinstance(f, BlockFactor) for f in fact.factors)
    for f in fact.factors:  # spelled, so that only moved records are lazy
        f.conjugator
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


def sweep_arrangements():
    rng = random.Random(17)
    arrs = [random_generic_arrangement(rng, m) for m in (2, 5, 9)]
    arrs.append(LineArrangement.from_pairs([(i, i * i) for i in range(1, 11)]))
    pencil = [(s, 0) for s in range(1, 5)] + [(-1, 7), (-2, Fraction(-5, 2))]
    arrs.append(LineArrangement.from_pairs(pencil))
    return arrs


def spelled_at_once(arr, expand_blocks):
    """The conjugator letters the sweep spelled at once: for the point of
    event q, the block half-twists of the events right of it, nearest last,
    repeated for each node of an expanded block."""
    m, events = arr.m, to_wiring_diagram(arr).events
    out = []
    for idx, (low, high) in enumerate(events):
        word = ()
        for q in range(len(events) - 1, idx, -1):
            word += delta_word(m, *events[q]).letters
        width = high - low + 1
        out += [word] * (width * (width - 1) // 2 if expand_blocks else 1)
    return out


@pytest.mark.parametrize("expand_blocks", [False, True])
class TestSweepRecords:
    def test_nothing_spelled_until_read(self, expand_blocks):
        for arr in sweep_arrangements():
            fact = braid_monodromy(arr, expand_blocks=expand_blocks)
            assert is_delta2_factorization(fact) and canonical_key(fact)
            assert all(is_lazy(f) for f in fact.factors)
            head, *rest = fact.factors
            head.conjugator
            assert not is_lazy(head) and all(is_lazy(f) for f in rest)

    def test_spelled_words_are_the_block_concatenation(self, expand_blocks):
        for arr in sweep_arrangements():
            fact = braid_monodromy(arr, expand_blocks=expand_blocks)
            want = spelled_at_once(arr, expand_blocks)
            assert [f.conjugator.letters for f in fact.factors] == want
            assert [f.conjugator.letters for f in fact.factors] == want  # read again

    def test_walk_reads_only_records_with_no_form(self, expand_blocks):
        """Among unspelled sweep records, the `with_conjugator` records get
        their forms from one trie walk over their own words; no sweep record
        is spelled, and none has its carried form recomputed."""
        for arr in sweep_arrangements():
            m, words = arr.m, spelled_at_once(arr, expand_blocks)
            sweep = braid_monodromy(arr, expand_blocks=expand_blocks).factors
            other = braid_monodromy(arr, expand_blocks=expand_blocks).factors
            mixed = tuple(g.with_conjugator(BraidWord(m, w)) if i % 2 else f
                          for i, (f, g, w) in enumerate(zip(sweep, other, words)))
            forms = [f._conj_raw for f in mixed]
            assert is_delta2_factorization(Factorization(m, mixed))
            for i, (f, form, w) in enumerate(zip(mixed, forms, words)):
                if i % 2:
                    assert form is None and f._conj_raw == raw_of_word(m, w)
                else:
                    assert is_lazy(f) and f._conj_raw is form

    def test_moved_records_spell_their_form(self, expand_blocks):
        """A move drops the sweep's spelling source: the moved record spells
        the canonical word of its new form, the others the sweep's words."""
        arr = sweep_arrangements()[-1]
        m, want = arr.m, spelled_at_once(arr, expand_blocks)
        for k in range(1, len(want)):
            for move, moved_at in ((hurwitz_move, k - 1), (hurwitz_move_inverse, k)):
                fact = move(braid_monodromy(arr, expand_blocks=expand_blocks), k)
                moved = fact.factors[moved_at]
                assert is_lazy(moved)
                assert moved.conjugator == BraidWord(m, raw_to_letters(m, moved._conj_raw))
                # the other factor of the pair came from where the moved one is
                kept = fact.factors[2 * k - 1 - moved_at]
                assert kept.conjugator.letters == want[moved_at]


def test_block_nodes_share_one_spelled_word(monkeypatch):
    """The six nodes of an expanded block read one word object, their
    block's, and the sweep spells each point's word once."""
    spelled = []

    def counting(m, deltas, n):
        spelled.append(n)
        return prefix_word(m, deltas, n)

    prefix_word = arrangements._prefix_word
    monkeypatch.setattr(arrangements, "_prefix_word", counting)
    fact = braid_monodromy(pencil_and_line(), expand_blocks=True)
    assert spelled == []
    by_letters = {}
    for f in fact.factors:
        by_letters.setdefault(f.conjugator.letters, []).append(f.conjugator)
    assert sorted(map(len, by_letters.values())) == [1, 1, 1, 1, 6]
    assert all(len(set(map(id, words))) == 1 for words in by_letters.values())
    assert sorted(spelled) == list(range(5))


def tangency_and_branch_point():
    """Rules I and III, with conjugated cores: Rule III has twist rows."""
    conj = BraidWord(3, (2, -1, 2))
    return Factorization(3, (StructuredFactor(conj, HalfTwist(3, 1, 3), 1),
                             StructuredFactor(conj, HalfTwist(3, 2, 3), 4)))


def count_calls(monkeypatch, owner, name):
    """A one-element list counting calls of `owner.<name>`."""
    calls = [0]
    fn = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_regeneration_pipeline_spells_nothing(monkeypatch):
    """Work guard: past the sweep, the library pipeline `regenerate`, the
    `Delta^2` check, `canonical_key` and `complete_deficit` builds no braid
    word, and every record, sweep or row, stays unspelled.  The sweep
    itself spells no conjugator; it builds the word of each point's block
    half-twist for its letters.  The core forms are filled by a first run."""
    tangent = sweep_arrangements()[3]

    def pipeline(fact):
        regenerated = regenerate(fact)
        assert not is_delta2_factorization(regenerated) and canonical_key(regenerated)
        assert complete_deficit(regenerated).ruled_out
        return regenerated

    pipeline(braid_monodromy(tangent, expand_blocks=True))
    fact = braid_monodromy(tangent, expand_blocks=True)
    words = count_calls(monkeypatch, BraidWord, "__post_init__")
    cables = count_calls(monkeypatch, rg.IndexDoubling, "word")
    regenerated = pipeline(fact)
    assert (words[0], cables[0]) == (0, 0)
    assert all(is_lazy(f) for f in fact.factors + regenerated.factors)


@pytest.mark.parametrize("make", [lambda: braid_monodromy(sweep_arrangements()[3]),
                                  tangency_and_branch_point], ids=["tangent", "rule-III"])
def test_rows_spell_the_cabled_words(monkeypatch, make):
    """On read, each input factor is cabled once, its plain rows share the
    cable, one word object, and a twist row spells the cable with its
    letter appended, freely reduced, as regeneration spelled them at once."""
    fact, cable = make(), rg.IndexDoubling.word
    regenerated = regenerate(fact)
    cables = count_calls(monkeypatch, rg.IndexDoubling, "word")
    rows = iter(regenerated.factors)
    for factor in fact.factors:
        doubled = cable(rg.IndexDoubling(fact.strands), factor.conjugator)
        plain = []
        for *_, twist in rg._RULES[rg._RULE_BY_EXPONENT[factor.exponent]][1]:
            row = next(rows)
            letter = (twist * (2 * factor.base.high - 1),) if twist else ()
            assert row.conjugator == BraidWord(doubled.strands,
                                               free_reduce(doubled.letters + letter))
            plain += [] if twist else [row.conjugator]
        assert len(set(map(id, plain))) == 1
    assert next(rows, None) is None
    assert cables[0] == len(fact.factors)


# The position of the last move of the `undoable` pickle case.
UNDO = 2


def from_words(fact):
    """The factorization rebuilt from its records' words, carrying no form."""
    return Factorization(fact.strands, tuple(f.with_conjugator(f.conjugator)
                                             for f in fact.factors))


def undone_key(fact):
    return canonical_key(hurwitz_move_inverse(fact, UNDO))


def pickle_cases():
    def sweep():
        return braid_monodromy(pencil_and_line())

    def expanded():
        return braid_monodromy(pencil_and_line(), expand_blocks=True)

    def moved():
        return walk(braid_monodromy(pencil_and_line(), expand_blocks=True), 31, 60)

    def regenerated():
        return regenerate(braid_monodromy(sweep_arrangements()[2], expand_blocks=True))

    def undoable():
        """A walk whose last move, at UNDO, left a move back on its record."""
        return hurwitz_move(walk(standard_b3_factorization(), 32, 40), UNDO)

    return [pytest.param(case, id=case.__name__)
            for case in (sweep, expanded, moved, regenerated, undoable)]


@pytest.mark.parametrize("make", pickle_cases())
def test_records_survive_pickle(make):
    """A pickle round trip gives equal records; an unspelled record, sweep
    or node or moved or regenerated, is still unspelled after the load.  A moved record's
    move back, which holds the dumping process's ids, is dropped."""
    fact = make()
    fact.factors[0].conjugator  # one spelled record among the others
    lazy = [is_lazy(f) for f in fact.factors]
    assert any(lazy)
    if make.__name__ == "undoable":
        assert fact.factors[UNDO - 1]._move_back is not None
    loaded = pickle.loads(pickle.dumps(fact))
    assert [is_lazy(f) for f in loaded.factors] == lazy
    assert all(f._move_back is None for f in loaded.factors)
    assert loaded == fact
    assert canonical_key(loaded) == canonical_key(fact)
    assert undone_key(loaded) == undone_key(from_words(loaded))


# Run in a fresh interpreter: it sweeps seven tangent lines first, so its
# kernel numbers permutation ids in another order than the dumping process,
# then loads each case's pickle and builds the same case afresh.
LOADER = """
import pickle, sys
from braidmono import LineArrangement, braid_monodromy, canonical_key, is_delta2_factorization
from test_lazy_conjugators import from_words, is_lazy, pickle_cases, undone_key
braid_monodromy(LineArrangement.from_pairs([(i, i * i) for i in range(1, 8)]))
out = []
for param, loaded in zip(pickle_cases(), pickle.load(sys.stdin.buffer)):
    lazy = [is_lazy(f) for f in loaded.factors]
    same = canonical_key(loaded) == canonical_key(param.values[0]())
    undone = undone_key(loaded) == undone_key(from_words(loaded))
    out.append((lazy, is_delta2_factorization(loaded), same and undone))
pickle.dump(out, sys.stdout.buffer)
"""


def test_records_survive_pickle_across_processes():
    """A record pickles by its conjugator's permutation images, not by the
    kernel ids of the process that dumped it: loaded where other ids were
    interned first, it keeps its answers and its unspelled conjugators, and
    undoes its last move as the same records rebuilt from words do."""
    facts = [param.values[0]() for param in pickle_cases()]
    for fact in facts:
        fact.factors[0].conjugator
        canonical_key(fact)  # fills the element forms that pickle drops
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS),
                                         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", LOADER], env=env, capture_output=True,
                          input=pickle.dumps(facts), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    for fact, (lazy, delta2, same) in zip(facts, pickle.loads(proc.stdout), strict=True):
        assert lazy == [is_lazy(f) for f in fact.factors]
        assert delta2 == is_delta2_factorization(fact)
        assert same


class TestApplyMovesDirection:
    @pytest.mark.parametrize("direction", [0, 7, 2, -3])
    def test_other_directions_are_rejected(self, direction):
        with pytest.raises(BraidError, match="direction"):
            apply_moves(standard_b3_factorization(), [(1, direction)])

    def test_unit_directions_replay(self):
        fact = standard_b3_factorization()
        assert apply_moves(fact, [(1, 1)]) == hurwitz_move(fact, 1)
        assert apply_moves(fact, [(1, -1)]) == hurwitz_move_inverse(fact, 1)
