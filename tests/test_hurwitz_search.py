"""The element-id search engine against a reference copy of the
factorization-record search it replaced: identical verdicts, certificates,
`explored` counts and orbit key sets.  The record moves' shortcuts (equal
pairs and undone moves) against word arithmetic, and work guards."""

import random
import time
from collections import deque
from pathlib import Path

import pytest

import braidmono.factorization as fz
from braidmono import (
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
    expand,
    hurwitz_equivalent,
    hurwitz_move,
    hurwitz_move_inverse,
    orbit_enumerate,
)
from braidmono.braid import compose, free_reduce, invert
from braidmono.garside import nf_from_raw, raw_inverse, raw_of_word, raw_to_letters
from braidmono.textio import parse_factorization
from conftest import (
    random_generic_arrangement,
    random_word,
    reduced_word,
    standard_b3_factorization,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

# --- reference engine: every state a Factorization, every move spelled ----


def _ref_neighbors(fact):
    for k in range(1, len(fact.factors)):
        yield (k, 1), hurwitz_move(fact, k)
        yield (k, -1), hurwitz_move_inverse(fact, k)


def ref_hurwitz_equivalent(f1, f2, budget=1_000_000):
    if f1.strands != f2.strands:
        return fz.EquivalenceResult(Verdict.NOT_EQUIVALENT, witness="strand counts differ")
    if len(f1.factors) != len(f2.factors):
        return fz.EquivalenceResult(
            Verdict.NOT_EQUIVALENT,
            witness="factor counts differ (length is a Hurwitz invariant)",
        )
    inv1, inv2 = fz.hm_invariants(f1), fz.hm_invariants(f2)
    if inv1.product_nf != inv2.product_nf:
        return fz.EquivalenceResult(Verdict.NOT_EQUIVALENT, witness="products differ as braids")
    if inv1.class_multiset != inv2.class_multiset:
        return fz.EquivalenceResult(
            Verdict.NOT_EQUIVALENT, witness="factor class multisets differ"
        )
    k1, k2 = canonical_key(f1), canonical_key(f2)
    if k1 == k2:
        return fz.EquivalenceResult(Verdict.EQUIVALENT, moves=(), explored=0)
    sides = (
        {"seen": {k1: (None, None)}, "frontier": deque([(k1, f1)])},
        {"seen": {k2: (None, None)}, "frontier": deque([(k2, f2)])},
    )
    stored = 2

    def path_to_root(side, key):
        moves = []
        while True:
            parent, move = sides[side]["seen"][key]
            if parent is None:
                return moves
            moves.append(move)
            key = parent

    def certificate(meet):
        fwd = list(reversed(path_to_root(0, meet)))
        back = [(k, -d) for (k, d) in path_to_root(1, meet)]
        return tuple(fwd + back)

    while sides[0]["frontier"] and sides[1]["frontier"]:
        side = 0 if len(sides[0]["frontier"]) <= len(sides[1]["frontier"]) else 1
        other = 1 - side
        frontier = sides[side]["frontier"]
        for _ in range(len(frontier)):
            key, fact = frontier.popleft()
            for move, nxt in _ref_neighbors(fact):
                nkey = canonical_key(nxt)
                if nkey in sides[side]["seen"]:
                    continue
                if stored >= budget:
                    return fz.EquivalenceResult(Verdict.INCONCLUSIVE, explored=stored)
                sides[side]["seen"][nkey] = (key, move)
                stored += 1
                if nkey in sides[other]["seen"]:
                    return fz.EquivalenceResult(
                        Verdict.EQUIVALENT, moves=certificate(nkey), explored=stored
                    )
                frontier.append((nkey, nxt))
    return fz.EquivalenceResult(
        Verdict.NOT_EQUIVALENT,
        witness="orbit enumerated without reaching the other factorization",
        explored=stored,
    )


def ref_orbit_enumerate(fact, budget=1_000_000):
    start = canonical_key(fact)
    seen = {start}
    frontier = deque([fact])
    while frontier:
        cur = frontier.popleft()
        for _move, nxt in _ref_neighbors(cur):
            nkey = canonical_key(nxt)
            if nkey in seen:
                continue
            if len(seen) >= budget:
                return fz.OrbitResult(frozenset(seen), False, len(seen))
            seen.add(nkey)
            frontier.append(nxt)
    return fz.OrbitResult(frozenset(seen), True, len(seen))


# --- comparisons ----------------------------------------------------------


def nf_keys(m, keys):
    """Orbit keys with every raw form spelled as a NormalForm, so the
    comparison does not rest on the process's permutation-id numbering."""
    return {tuple(nf_from_raw(m, raw) for raw in key) for key in keys}


def scramble(rng, fact, length):
    moves = [(rng.randint(1, len(fact.factors) - 1), rng.choice((1, -1))) for _ in range(length)]
    return apply_moves(fact, moves)


def assert_same_search(f1, f2, budget=1_000_000):
    new = hurwitz_equivalent(f1, f2, budget=budget)
    ref = ref_hurwitz_equivalent(f1, f2, budget=budget)
    assert new == ref
    if new.verdict is Verdict.EQUIVALENT:
        assert canonical_key(apply_moves(f1, new.moves)) == canonical_key(f2)
    return new


def assert_same_orbit(fact, budget):
    new = orbit_enumerate(fact, budget=budget)
    ref = ref_orbit_enumerate(fact, budget=budget)
    assert (new.exhausted, new.explored) == (ref.exhausted, ref.explored)
    assert nf_keys(fact.strands, new.keys) == nf_keys(fact.strands, ref.keys)
    assert canonical_key(fact) in new.keys
    return new


@pytest.mark.parametrize("budget", [1, 2, 7, 50, 500])
def test_b3_orbit_matches_reference(budget):
    assert_same_orbit(standard_b3_factorization(), budget)


# 5-line arrangements with a triple point at the origin, swept with the
# block expanded into half-twist squares.  Their orbits meet adjacent
# elements that commute, where both new pairs of a move are the one pair
# (f, g) = (b, a), already in the move table when the second is recorded.
TRIPLE_POINT_LINES = (
    ((0, 0), (1, 0), (-1, 0), (2, 1), (-2, 3)),
    ((0, 0), (1, 0), (-1, 0), (1, 2), (-1, 2)),
)


def triple_point_sweep(lines):
    return braid_monodromy(LineArrangement.from_pairs(lines), expand_blocks=True)


@pytest.mark.parametrize("budget", [2, 3, 30])
@pytest.mark.parametrize("lines", TRIPLE_POINT_LINES)
def test_triple_point_sweeps_match_reference(rng, lines, budget):
    f1 = triple_point_sweep(lines)
    assert_same_orbit(f1, budget)
    for _ in range(3):
        assert_same_search(f1, scramble(rng, f1, 6), budget=budget)


@pytest.mark.parametrize("lines", TRIPLE_POINT_LINES)
def test_triple_point_orbits_meet_commuting_pairs(lines):
    fact = triple_point_sweep(lines)
    table = fz._MoveTable(fact.strands)
    states = [tuple(map(table._intern, key)) for key in orbit_enumerate(fact, budget=30).keys]
    assert any(table.move(a, b, 1) == b for st in states for a, b in zip(st, st[1:]))


@pytest.mark.parametrize("budget", [2, 3, 30])
def test_b5_scrambles_match_reference(rng, budget):
    for _ in range(3):
        f1 = braid_monodromy(random_generic_arrangement(rng, 5))
        assert_same_orbit(f1, budget)
        assert_same_search(f1, scramble(rng, f1, 6), budget=budget)


def test_sweep_scrambles_match_reference(rng):
    for _ in range(10):
        f1 = braid_monodromy(random_generic_arrangement(rng, 4))
        f2 = scramble(rng, f1, 6)
        assert assert_same_search(f1, f2).verdict is Verdict.EQUIVALENT


def test_inconclusive_matches_reference(rng):
    f1 = braid_monodromy(random_generic_arrangement(rng, 4))
    f2 = scramble(rng, f1, 12)
    res = assert_same_search(f1, f2, budget=30)
    assert res.verdict is Verdict.INCONCLUSIVE and res.explored == 30


def test_exhaustion_matches_reference():
    # A tuple of equal factors is fixed by every move, so (D, D) and its
    # conjugate by s2 are one-element orbits with the same product Delta^2
    # and the same class multiset.  No such pair exists in B_2: it is
    # abelian, so equal class multisets there mean equal factor multisets.
    e = BraidWord.identity(3)
    delta = BlockFactor(e, 1, 3, exponent=1)
    twisted = BlockFactor(BraidWord(3, (-2,)), 1, 3, exponent=1)
    f1 = Factorization(3, (delta, delta))
    f2 = Factorization(3, (twisted, twisted))
    res = assert_same_search(f1, f2)
    assert res.verdict is Verdict.NOT_EQUIVALENT
    assert "orbit enumerated" in res.witness and res.explored == 2


def b2_powers(*exponents):
    """(s1^e for e in exponents) in B_2, which is abelian: a move only
    swaps two factors, so distinct exponents give every ordering."""
    e, s1 = BraidWord.identity(2), HalfTwist(2, 1, 2)
    return Factorization(2, tuple(StructuredFactor(e, s1, x) for x in exponents))


@pytest.mark.parametrize("budget", [5, 6, 7])
def test_orbit_closing_at_the_budget(budget):
    """The 6-state orbit closes with exactly `budget` states at budget 6:
    the budget is checked only before a new state is stored."""
    res = assert_same_orbit(b2_powers(1, 2, 3), budget)
    assert (res.exhausted, res.explored) == (budget >= 6, min(budget, 6))


@pytest.mark.parametrize("budget", [2, 3, 4, 5, 6, 7])
def test_search_meeting_past_the_budget(budget):
    """Both sides grow in the one 6-state orbit; they meet on the 7th
    stored state, so every smaller budget is spent to the last state."""
    res = assert_same_search(b2_powers(1, 2, 3), b2_powers(3, 2, 1), budget)
    if budget < 7:
        assert res.verdict is Verdict.INCONCLUSIVE and res.explored == budget
    else:
        assert res.verdict is Verdict.EQUIVALENT and res.explored == 7


def test_search_spells_no_words(monkeypatch, rng):
    f1 = braid_monodromy(random_generic_arrangement(rng, 4))
    f2 = scramble(rng, f1, 6)
    want = hurwitz_equivalent(f1, f2)

    def forbidden(*args, **kwargs):
        raise AssertionError("a search built a word")

    for name in ("raw_to_letters", "BraidWord", "hurwitz_move", "hurwitz_move_inverse"):
        monkeypatch.setattr(fz, name, forbidden)
    assert fz.hurwitz_equivalent(f1, f2) == want
    assert fz.orbit_enumerate(f1, budget=300).explored == 300


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_move_table_against_words(rng, m):
    """move(a, b, +1) is a b a^-1 and move(a, b, -1) is b^-1 a b.  A new
    pair interns the forward result before the inverse one, whichever
    direction is asked for first."""
    table = fz._MoveTable(m)
    both_new = 0
    for trial in range(20):
        wa, wb = random_word(rng, m, 20), random_word(rng, m, 20)
        a = table._intern(raw_of_word(m, wa.letters))
        b = table._intern(raw_of_word(m, wb.letters))
        fresh = len(table._raws)
        first = 1 if trial % 2 else -1
        asked = {first: table.move(a, b, first)}
        asked[-first] = table.move(a, b, -first)
        forward, inverse = asked[1], asked[-1]
        assert table._raws[forward] == raw_of_word(m, compose(wa, wb, invert(wa)).letters)
        assert table._raws[inverse] == raw_of_word(m, compose(invert(wb), wa, wb).letters)
        for i in (forward, inverse):
            assert table._inverse(i) == raw_inverse(m, table._raws[i])
        if min(forward, inverse) >= fresh and forward != inverse:
            both_new += 1
            assert (forward, inverse) == (fresh, fresh + 1)
    assert both_new >= 10


def count_calls(monkeypatch, name="raw_multiply"):
    """A one-element list counting calls of `factorization.<name>`."""
    calls = [0]
    fn = getattr(fz, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(fz, name, counted)
    return calls


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_move_table_keeps_pair_products(monkeypatch, rng, m):
    """Once (a, b) is moved, f = a b a^-1 and g = b^-1 a b: the move back
    from (f, a) to b and from (b, g) to a takes no product, and the forward
    move of (f, a), f a f^-1, takes one, since the product a b is kept."""
    calls = count_calls(monkeypatch)
    apart = 0
    for trial in range(20):
        table = fz._MoveTable(m)
        wa, wb = (BraidWord(m, reduced_word(rng, m, rng.randint(4, 20))) for _ in "ab")
        a, b = (table._intern(raw_of_word(m, w.letters)) for w in (wa, wb))
        table.move(a, b, 1 if trial % 2 else -1)
        f, g = table.move(a, b, 1), table.move(a, b, -1)
        before = calls[0]
        assert (table.move(f, a, -1), table.move(b, g, 1)) == (b, a)
        assert calls[0] == before
        if f == b:
            continue  # a and b commute: (f, a) = (b, g) knows both moves
        apart += 1
        wf = compose(wa, wb, invert(wa))
        assert table._raws[table.move(f, a, 1)] == raw_of_word(
            m, compose(wf, wa, invert(wf)).letters)
        assert calls[0] == before + 1
    assert apart >= 15


def test_searches_reuse_pair_products(monkeypatch):
    """Work guard: a pair first met as the new pair of a move costs at most
    one product, not three.  Counted through `factorization.raw_multiply`
    with the element forms filled first.  With three products a pair, the
    orbit takes 657 and the search, which stores 2,163 states, 1,289."""
    b3 = standard_b3_factorization()
    rng = random.Random(2)
    f1 = braid_monodromy(random_generic_arrangement(rng, 4))
    f2 = scramble(rng, f1, 10)
    for fact in (b3, f1, f2):
        canonical_key(fact)
    calls = count_calls(monkeypatch)
    assert orbit_enumerate(b3, budget=2000).explored == 2000
    assert calls[0] <= 351 + 10
    calls[0] = 0
    assert hurwitz_equivalent(f1, f2).explored == 2163
    assert calls[0] <= 945 + 25


@pytest.mark.parametrize("m", [2, 3, 5])
def test_move_table_equal_pairs_take_no_product(monkeypatch, rng, m):
    """(a, a) moves to (a, a) both ways: no product, no inverse, no new id."""
    table = fz._MoveTable(m)
    ids = [table._intern(raw_of_word(m, random_word(rng, m, 20).letters)) for _ in range(10)]
    products, inverses = count_calls(monkeypatch), count_calls(monkeypatch, "raw_inverse")
    for trial, i in enumerate(ids):
        first = 1 if trial % 2 else -1
        assert (table.move(i, i, first), table.move(i, i, -first)) == (i, i)
    assert (products[0], inverses[0], len(table._raws)) == (0, 0, len(set(ids)))


def test_orbit_moves_equal_pairs_without_products(monkeypatch):
    """Work guard: 24 of the 219 pairs the B_3 orbit completes at budget
    2,000 are equal pairs, which take no product.  Counted with the element
    forms filled first; multiplying them, the orbit takes 351."""
    b3 = standard_b3_factorization()
    canonical_key(b3)
    calls = count_calls(monkeypatch)
    assert orbit_enumerate(b3, budget=2000).explored == 2000
    assert calls[0] <= 279 + 10


def test_walks_reuse_equal_pairs_and_move_backs(monkeypatch):
    """Work guard: a move on two equal elements takes one short product
    (the conjugator times its own core), and the opposite move of the move
    that built a record, by a mover with an equal element, takes none.
    Counted on the seeded 1,000-move B_3 walk with the element forms filled
    first; multiplying on every move, the walk takes 2,040."""
    b3 = standard_b3_factorization()
    rng = random.Random(1)
    moves = [(rng.randint(1, 5), rng.choice((1, -1))) for _ in range(1000)]
    canonical_key(b3)
    calls = count_calls(monkeypatch)
    apply_moves(b3, moves)
    assert calls[0] <= 1354 + 30


def test_searches_invert_only_what_they_read(monkeypatch):
    """Work guard: the move table takes an element's inverse the first time
    a completed pair reads it, not when the element is interned.  Counted
    through `factorization.raw_inverse` with the element forms filled
    first; inverting every interned element, the search takes 433."""
    rng = random.Random(2)
    f1 = braid_monodromy(random_generic_arrangement(rng, 4))
    f2 = scramble(rng, f1, 10)
    for fact in (f1, f2):
        canonical_key(fact)
    calls = count_calls(monkeypatch, "raw_inverse")
    assert hurwitz_equivalent(f1, f2).explored == 2163
    assert calls[0] <= 133 + 15


# --- the cap on the length of a move's forms --------------------------------


def test_record_walk_stops_at_the_cap():
    """A random walk on a 4-line sweep grows its conjugator forms
    exponentially: 39,621 canonical factors after 100 moves, past a million
    after 150 without the cap.  The walk stops with a BraidError, in under a
    second of CPU time."""
    fact = parse_factorization((GOLDEN / "sweep4.fac").read_text())
    rng = random.Random(1)
    moves = [(rng.randint(1, 5), rng.choice((1, -1))) for _ in range(150)]
    start = time.process_time()
    apply_moves(fact, moves[:100])
    with pytest.raises(BraidError, match=f"cap of {fz.MAX_CANONICAL_LENGTH} for Hurwitz moves"):
        apply_moves(fact, moves)
    assert time.process_time() - start < 1


def test_move_table_stops_at_the_cap(monkeypatch):
    """A search interns no element past the cap."""
    monkeypatch.setattr(fz, "MAX_CANONICAL_LENGTH", 20)
    fact = parse_factorization((GOLDEN / "sweep4.fac").read_text())
    with pytest.raises(BraidError, match="of 21 canonical factors passed the cap of 20 "):
        orbit_enumerate(fact, budget=100_000)


# --- moves on equal factors and undone moves, against word arithmetic -----


def word_move(factors, k, direction):
    """(a, b) -> (a b a^-1, a) for +1 and (b, b^-1 a b) for -1, on
    (record, moved) pairs: the moved factor keeps its core and gets the
    mover's word prepended to its conjugator, freely reduced."""
    (a, _), (b, moved) = factors[k - 1], factors[k]
    mover, old = (a, b) if direction > 0 else (b, a)
    by = expand(mover) if direction > 0 else invert(expand(mover))
    letters = free_reduce(by.letters + old.conjugator.letters)
    new = (old.with_conjugator(BraidWord(old.strands, letters)), True)
    pair = (new, factors[k - 1]) if direction > 0 else (factors[k], new)
    return factors[: k - 1] + pair + factors[k + 1 :]


def assert_same_records(fact, factors):
    """The same elements and conjugator forms as the word-built records;
    a moved record spells the canonical word of its form, an unmoved one
    its own word."""
    m = fact.strands
    ref = Factorization(m, tuple(f for f, _ in factors))
    assert canonical_key(fact) == canonical_key(ref)
    for f, (g, moved) in zip(fact.factors, factors, strict=True):
        raw = raw_of_word(m, g.conjugator.letters)
        assert fz._conjugator_raw(f) == raw
        want = raw_to_letters(m, raw) if moved else g.conjugator.letters
        assert f.conjugator.letters == want


def b2_sigma1_run():
    s1 = StructuredFactor(BraidWord.identity(2), HalfTwist(2, 1, 2), 1)
    return Factorization(2, (s1,) * 5)


def b4_repeated_nodes():
    """A node repeated, a block twist repeated and a run of half-twists."""
    e = BraidWord.identity(4)
    node = StructuredFactor(e, HalfTwist(4, 2, 3), 2)
    block = BlockFactor(BraidWord(4, (1, -3)), 1, 3, 2)
    s3 = StructuredFactor(e, HalfTwist(4, 3, 4), 1)
    return Factorization(4, (node, node, node, block, block, s3, s3, s3))


SHORTCUT_WALKS = [
    pytest.param(standard_b3_factorization, 200, id="b3"),
    pytest.param(lambda: parse_factorization((GOLDEN / "sweep4.fac").read_text()), 30,
                 id="sweep4"),
    pytest.param(lambda: parse_factorization((GOLDEN / "sweep5.fac").read_text()), 30,
                 id="sweep5"),
    pytest.param(b2_sigma1_run, 100, id="b2-sigma1-run"),
    pytest.param(b4_repeated_nodes, 100, id="b4-repeated-nodes"),
]


@pytest.mark.parametrize("start, length", SHORTCUT_WALKS)
@pytest.mark.parametrize("seed", [1, 2])
def test_move_shortcuts_against_words(start, length, seed):
    """Every step of a walk agrees with word arithmetic: explicit undo and
    redo runs, an undo after another position moved, an undo after its
    mover moved, then random moves of which about half undo the last one.
    A second walk with the same moves, read only at its end, agrees too."""
    fact = start()
    n = len(fact.factors) - 1
    moves = [(1, 1), (1, -1), (1, 1), (1, -1), (1, -1), (1, 1),
             (1, 1), (3, 1), (1, -1), (2, 1), (3, 1), (2, -1), (n, 1), (n, -1)]
    rng = random.Random(seed)
    while len(moves) < length:
        k, d = moves[-1]
        moves.append((k, -d) if rng.random() < 0.5 else (rng.randint(1, n), rng.choice((1, -1))))
    factors = tuple((f, False) for f in fact.factors)
    for k, d in moves:
        fact = hurwitz_move(fact, k) if d > 0 else hurwitz_move_inverse(fact, k)
        factors = word_move(factors, k, d)
        assert_same_records(fact, factors)
    assert_same_records(apply_moves(start(), moves), factors)
