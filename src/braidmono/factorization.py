"""
Positive factorizations of the full twist and the Hurwitz rewriting system.

A factorization is an ordered tuple of factors in B_m whose left-to-right
product is meant to be Delta^2 (checked, never assumed).  Factors are stored
structurally as conjugator * core^exponent * conjugator^-1 so positivity is
guaranteed by construction:

* `StructuredFactor` has a band half-twist core; exponent 1/2/3/4 marks a
  branch point / node / cusp / tangency when the factorization describes a
  plane curve.
* `BlockFactor` has the half-twist of a whole strand block as core; the
  line-arrangement sweep emits these (exponent 2, a full twist of the block)
  for points where more than two lines meet.

The Hurwitz move at position k rewrites (..., a, b, ...) into
(..., a b a^-1, a, ...); its inverse sends (a, b) to (b, b^-1 a b).  Both
preserve the product and the multiset of factor conjugacy data, which gives
the computable obstructions in `hm_invariants`.  Deciding Hurwitz
equivalence in general is open, so `hurwitz_equivalent` is an explicitly
budgeted bidirectional search whose INCONCLUSIVE verdict is first-class.

The searches (`hurwitz_equivalent`, `orbit_enumerate`) run one
breadth-first loop, `_MoveTable._search`, which stores its roots and then
a new state only while fewer than `budget` are stored.  It runs the
classical Hurwitz action on tuples of group elements, not on factor
records: each call interns the factors' canonical forms as small integer
ids and memoizes the pair move (a, b) -> a b a^-1 or b^-1 a b in a table
that lives for that call only.  A move keeps its pair's product, which the
table records for both new pairs with their move back, so a pair first
met as a new pair costs at most one product, not three.  A search state
is a tuple of ids, an orbit a set of such tuples, a state's parent the
signed position of the move that reached it, and a certificate a list of
move positions, so no conjugator word is spelled inside a search.
`hurwitz_move`, `hurwitz_move_inverse` and `apply_moves` return factor
records, but a moved record carries only its conjugator's raw form: it
spells the word, as the canonical word of that form, on the first read of
`conjugator` (directly or through eq, hash, repr, `dataclasses.replace`
or the text format), so a walk that reads only the final records spells
each word once.  A move takes no long product on an equal pair, (a, a)
to (a, a), when the replaced record carries its element (its conjugator
times its own core is one short product), nor when it undoes the move
that built the replaced record: each moved record keeps its move back,
the mover's element, the direction and the replaced record's forms, and
the opposite move by a mover with an equal element returns those forms.

Raw forms `(delta_power, factor_ids)` live on the factor records and die
with them: the conjugator's form, from the record's producer or else, for
a spelled record, from one `braid.prefix_walk` per factorization, and the
element's form, whose inverse a move takes in closed form.  Their factor
ids are numbered per process, so a pickled (or deep-copied) record
carries its conjugator's form by permutation images and drops the
element's form and its move back.  Every record stores its strand count.
Each producer (a Hurwitz move, the sweep, `expand_block_factor`,
regeneration) builds its records with `_record`, with no word: a moved
record spells the canonical word of its form on first read, the others
by a `(function, argument)` pair from their producer.  A move that makes
a form of more than `MAX_CANONICAL_LENGTH` canonical factors raises a
BraidError.
The searches use their per-call `_MoveTable`; the one module-level table
is `_CORE_RAWS`, never evicted, like the kernel's.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from functools import partial, reduce
from itertools import groupby
from typing import Callable, Iterable, Union

from .braid import (
    BraidError,
    BraidWord,
    HalfTwist,
    compose,
    delta_word,
    free_reduce,
    half_twist_word,
    invert,
    power,
    prefix_walk,
)
from .garside import (
    RAW_IDENTITY,
    NormalForm,
    nf_from_raw,
    nf_to_raw,
    raw_inverse,
    raw_multiply,
    raw_of_word,
    raw_to_letters,
)

_Raw = tuple[int, tuple[int, ...]]

# The most canonical factors a Hurwitz move may make in one form, on records
# or in a search's move table.  Forms grow exponentially along walks in B_4:
# a random walk on a 4-line sweep passes this in about a hundred moves, and
# passed a million factors, over 100 MB, fifty moves later.
MAX_CANONICAL_LENGTH = 100_000


def _capped(raw: _Raw) -> _Raw:
    if len(raw[1]) > MAX_CANONICAL_LENGTH:
        raise BraidError(f"a form of {len(raw[1])} canonical factors passed the cap of "
                         f"{MAX_CANONICAL_LENGTH} for Hurwitz moves")
    return raw


class _CarriedRaws:
    """The base of both factor records.  It holds a record's raw forms: its
    conjugator's form, for a spelled record filled per factorization by one
    prefix-trie walk (`_conjugator_raws`), and its element's form, filled
    on first use.  Not dataclass fields: eq, hash, repr and `replace`
    ignore them.

    Every record stores its strand count, `strands`: `_record` from its
    producer, `__post_init__` from the validated conjugator.  A record
    built by `_record` holds no `conjugator` until that is first read
    (by eq, hash, repr, `replace` or any caller); `__getattr__` then spells
    it once, as `function(argument)` for the `_spelling` source its
    producer handed over, or with no source as the canonical word of the
    carried form.

    Pickle and `copy.deepcopy` keep the strand count, the carried form as
    an id-free `NormalForm`, re-interned on load, and the spelling source
    as it is, so an unspelled record stays unspelled.  They drop the
    element's form, which is refilled on first use, and the move back
    of a moved record (see `_move`), which holds raw forms, never records.
    """

    _conj_raw: _Raw | None = None
    _element_raw: _Raw | None = None
    _spelling: tuple[Callable, object] | None = None
    _move_back: tuple | None = None

    def __getattr__(self, name: str):
        m = self.__dict__.get("strands")
        if name != "conjugator" or not m:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        if self._spelling is None:
            word = BraidWord(m, raw_to_letters(m, self._conj_raw))
        else:
            word = self._spelling[0](self._spelling[1])
        object.__setattr__(self, "conjugator", word)
        return word

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_element_raw", None)
        state.pop("_move_back", None)
        if self._conj_raw is not None:
            state["_conj_raw"] = nf_from_raw(self.strands, self._conj_raw)
        return state

    def __setstate__(self, state: dict) -> None:
        if state.get("_conj_raw") is not None:
            state["_conj_raw"] = nf_to_raw(state["_conj_raw"])
        self.__dict__.update(state)

    def with_conjugator(self, conjugator: BraidWord) -> Factor:
        """The same core under another conjugator, validated, with no
        carried form."""
        return dataclasses.replace(self, conjugator=conjugator)

    def class_label(self) -> tuple:
        """(kind, [width,] exponent, cycle type); the cycle type is taken
        from the core, which conjugation cannot change.  A width-2 block is
        the band half-twist (low, low+1), so it takes the half-twist label;
        Hurwitz-equivalent tuples share labels."""
        cyc = _core_cycle_type(_core_key(self))
        if isinstance(self, StructuredFactor) or self.width == 2:
            return ("halftwist", self.exponent, cyc)
        return ("blocktwist", self.width, self.exponent, cyc)


@dataclasses.dataclass(frozen=True)
class StructuredFactor(_CarriedRaws):
    """conjugator * (band half-twist)^exponent * conjugator^-1."""

    conjugator: BraidWord
    base: HalfTwist
    exponent: int = 1

    def __post_init__(self) -> None:
        if self.conjugator.strands != self.base.strands:
            raise BraidError("conjugator and base strand counts differ")
        if self.exponent < 1:
            raise BraidError(f"exponent must be positive, got {self.exponent}")
        object.__setattr__(self, "strands", self.base.strands)

    def core_word(self) -> BraidWord:
        return power(half_twist_word(self.base), self.exponent)

    def degree(self) -> int:
        """Exponent sum of the denoted word (conjugation-invariant)."""
        return self.exponent


@dataclasses.dataclass(frozen=True)
class BlockFactor(_CarriedRaws):
    """conjugator * Delta<low..high>^exponent * conjugator^-1.

    exponent 2 is the full twist of the block, the local monodromy of a
    point where high-low+1 lines meet.
    """

    conjugator: BraidWord
    low: int
    high: int
    exponent: int = 2

    def __post_init__(self) -> None:
        m = self.conjugator.strands
        if not (1 <= self.low < self.high <= m):
            raise BraidError(f"block [{self.low}, {self.high}] invalid for {m} strands")
        if self.exponent < 1:
            raise BraidError(f"exponent must be positive, got {self.exponent}")
        object.__setattr__(self, "strands", m)

    @property
    def width(self) -> int:
        return self.high - self.low + 1

    def core_word(self) -> BraidWord:
        return power(delta_word(self.strands, self.low, self.high), self.exponent)

    def degree(self) -> int:
        return self.exponent * self.width * (self.width - 1) // 2


Factor = Union[StructuredFactor, BlockFactor]


def expand(factor: Factor) -> BraidWord:
    """The braid word a factor denotes, freely reduced."""
    return compose(factor.conjugator, factor.core_word(), invert(factor.conjugator))


def _record(kind: type, m: int, raw: _Raw, spelling, fields: dict) -> Factor:
    """A `kind` record in B_m with the fields `fields`, unvalidated, carrying
    the conjugator form `raw` and no `conjugator`: it spells the word on
    first read by the `(function, argument)` pair `spelling`, or with none
    as the canonical word of `raw`."""
    record = object.__new__(kind)
    record.__dict__.update(fields, strands=m, _conj_raw=raw)
    if spelling is not None:
        record.__dict__["_spelling"] = spelling
    return record


def _conjugator_raws(m: int, factors: tuple[Factor, ...]) -> None:
    """Fill the conjugator form of each record among `factors`, in B_m, that
    carries none, pushing each edge of their prefix trie once; records that
    carry a form are neither recomputed nor spelled."""
    bare = [f for f in factors if f._conj_raw is None]
    if bare:
        words = [free_reduce(f.conjugator.letters) for f in bare]
        for i, raw in prefix_walk(words, RAW_IDENTITY, lambda raw, letters: raw_multiply(
                m, raw, raw_of_word(m, letters))):
            object.__setattr__(bare[i], "_conj_raw", raw)


def _conjugator_raw(factor: Factor) -> _Raw:
    """Canonical form of a factor's conjugator."""
    if factor._conj_raw is None:
        _conjugator_raws(factor.strands, (factor,))
    return factor._conj_raw


_CORE_RAWS: dict[tuple, _Raw] = {}


def _core_raw(factor: Factor) -> _Raw:
    """Canonical form of the factor's core, one entry per `_core_key`."""
    key = _core_key(factor)
    if key not in _CORE_RAWS:
        _CORE_RAWS[key] = raw_of_word(factor.strands, factor.core_word().letters)
    return _CORE_RAWS[key]


def _core_key(factor: Factor) -> tuple:
    if isinstance(factor, StructuredFactor):
        return ("halftwist", factor.strands, factor.base.low, factor.base.high, factor.exponent)
    return ("block", factor.strands, factor.low, factor.high, factor.exponent)


def _core_cycle_type(factor_core: tuple) -> tuple[int, ...]:
    """Cycle type of the core's permutation: the transposition (low high)
    of a half-twist, or the reversal of low..high of a block, raised to the
    exponent.  Both are involutions, so an odd exponent gives one 2-cycle
    per swapped pair and an even one the identity."""
    kind, strands, low, high, exponent = factor_core
    pairs = 0
    if exponent % 2:
        pairs = 1 if kind == "halftwist" else (high - low + 1) // 2
    return (2,) * pairs + (1,) * (strands - 2 * pairs)


def _element_raw(factor: Factor) -> _Raw:
    """Canonical form of the factor's element."""
    element = factor._element_raw
    if element is None:
        m = factor.strands
        conj = _conjugator_raw(factor)
        element = raw_multiply(m, conj, _core_raw(factor))
        element = raw_multiply(m, element, raw_inverse(m, conj))
        object.__setattr__(factor, "_element_raw", element)
    return element


@dataclasses.dataclass(frozen=True)
class Factorization:
    """Ordered factor tuple in B_strands; composes left to right."""

    strands: int
    factors: tuple[Factor, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise BraidError(f"strand count must be positive, got {self.strands}")
        for f in self.factors:
            if f.strands != self.strands:
                raise BraidError("factor strand count differs from factorization")

    def __len__(self) -> int:
        return len(self.factors)

    def degree(self) -> int:
        return sum(f.degree() for f in self.factors)


def product(fact: Factorization) -> BraidWord:
    """Left-to-right composition of the expanded factors."""
    words = [expand(f) for f in fact.factors]
    if not words:
        return BraidWord.identity(fact.strands)
    return compose(BraidWord.identity(fact.strands), *words)


def _product_raw(fact: Factorization) -> _Raw:
    # Telescoped: prod c_i z_i c_i^-1 = c_1 z_1 (c_1^-1 c_2) z_2 ... z_n c_n^-1,
    # where the grouping ((P c_i) z_i) c_i^-1 would push every factor of c_i
    # and of c_i^-1, several for a cabled one.  Factors under one conjugator,
    # as a regenerated node's rows, form a run: c z_1 c^-1 c z_2 c^-1 =
    # c (z_1 z_2) c^-1, so the run enters with one step.  In a sweep the step
    # c_{i-1}^-1 c_i is H_i^-1, H_i the point's block half-twist: a short braid
    # whose normal form is Delta^-1 times a factor with nearly every crossing.
    # Pushed alone it twists the running product and slides that near-Delta
    # factor across it; the step times the core H_i^2 is H_i, one short
    # positive factor, so the step meets its run's cores first.
    m = fact.strands
    _conjugator_raws(m, fact.factors)
    out = carried = RAW_IDENTITY
    for conj, run in groupby(fact.factors, _conjugator_raw):
        step = raw_multiply(m, carried, conj)
        out = raw_multiply(m, out, reduce(partial(raw_multiply, m), map(_core_raw, run), step))
        carried = raw_inverse(m, conj)
    return raw_multiply(m, out, carried)


def product_nf(fact: Factorization) -> NormalForm:
    """Canonical form of the product, computed factor by factor."""
    return nf_from_raw(fact.strands, _product_raw(fact))


# The full twist is Delta^2 with no simple factors after it, so its left
# normal form is (2, ()) for every m >= 2; nothing needs normalizing.
_FULL_TWIST_RAW: _Raw = (2, ())


def is_delta2_factorization(fact: Factorization) -> bool:
    """Does the product equal the full twist?  Necessary for the
    factorization to arise as a braid monodromy factorization."""
    m = fact.strands
    # The exponent sum is a homomorphism to Z, so a degree other than
    # deg Delta^2 = m(m-1) settles the question without multiplying.  In
    # B_1, where no factor fits, the empty product is Delta^2 = 1.
    if fact.degree() != m * (m - 1):
        return False
    return m == 1 or _product_raw(fact) == _FULL_TWIST_RAW


def canonical_key(fact: Factorization) -> tuple:
    """Hashable key equal exactly when the factor tuples agree as sequences
    of group elements (conjugator spelling is irrelevant).  It holds raw
    forms, whose factor ids are numbered per process, so keys compare only
    within one process; `nf_from_raw(m, raw).key()` of each entry is the
    portable spelling."""
    _conjugator_raws(fact.strands, fact.factors)
    return tuple(map(_element_raw, fact.factors))


def _move(fact: Factorization, k: int, forward: bool) -> Factorization:
    """The Hurwitz move at 1-based position k.  The moved factor's record
    carries its new conjugator's form and spells the word, as the canonical
    word of that form, only when it is first read, and its move back."""
    if not (1 <= k < len(fact.factors)):
        raise BraidError(f"move position {k} out of range 1..{len(fact.factors) - 1}")
    m = fact.strands
    a, b = fact.factors[k - 1], fact.factors[k]
    mover, old = (a, b) if forward else (b, a)
    e, c, back = _element_raw(mover), _conjugator_raw(old), old._move_back
    if back is not None and back[1] != forward and back[0] == e:
        # The opposite move by an equal mover undoes the move that built `old`.
        conj, element = back[2], back[3]
    elif old._element_raw == e:
        # (a, a) moves to (a, a): e c = c z and e^-1 c = c z^-1 for e = c z c^-1.
        z = _core_raw(old)
        conj, element = raw_multiply(m, c, z if forward else raw_inverse(m, z)), e
    else:
        # a b a^-1 conjugates b's conjugator by a; b^-1 a b conjugates a's by b^-1.
        conj, element = raw_multiply(m, e if forward else raw_inverse(m, e), c), None
    # The core fields were validated when `old` was built, so they are
    # copied unchecked; the old conjugator's word and spelling source are
    # dropped, so the moved record spells its own canonical word.  Its
    # move back holds raw forms only, so no chain of records stays alive.
    core = old.__dict__.copy()
    core.pop("conjugator", None)
    core.pop("_spelling", None)
    core.update(_element_raw=element, _move_back=(e, forward, c, old._element_raw))
    moved = _record(type(old), m, _capped(conj), None, core)
    pair = (moved, a) if forward else (b, moved)
    out = object.__new__(Factorization)  # all factors have m strands: no check
    out.__dict__.update(strands=m, factors=fact.factors[: k - 1] + pair + fact.factors[k + 1 :])
    return out


def hurwitz_move(fact: Factorization, k: int) -> Factorization:
    """Replace (a_k, a_{k+1}) by (a_k a_{k+1} a_k^-1, a_k); 1-based k."""
    return _move(fact, k, True)


def hurwitz_move_inverse(fact: Factorization, k: int) -> Factorization:
    """Replace (a_k, a_{k+1}) by (a_{k+1}, a_{k+1}^-1 a_k a_{k+1}); 1-based k."""
    return _move(fact, k, False)


@dataclasses.dataclass(frozen=True)
class HMInvariants:
    """Computable obstructions to Hurwitz equivalence: exact product, plus
    the multiset of (kind, exponent, cycle type) factor labels."""

    product_nf: NormalForm
    class_multiset: tuple[tuple, ...]


def hm_invariants(fact: Factorization) -> HMInvariants:
    labels = tuple(sorted(f.class_label() for f in fact.factors))
    return HMInvariants(product_nf(fact), labels)


class Verdict(enum.Enum):
    EQUIVALENT = "EQUIVALENT"
    NOT_EQUIVALENT = "NOT_EQUIVALENT"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclasses.dataclass(frozen=True)
class EquivalenceResult:
    verdict: Verdict
    moves: tuple[tuple[int, int], ...] | None = None  # (position, +1/-1)
    witness: str | None = None
    explored: int = 0


def apply_moves(fact: Factorization, moves: Iterable[tuple[int, int]]) -> Factorization:
    """Replay a move certificate: (k, +1) forward move, (k, -1) inverse.
    Any other direction is a BraidError."""
    for k, direction in moves:
        if direction not in (1, -1):
            raise BraidError(f"move direction must be +1 or -1, got {direction!r}")
        fact = hurwitz_move(fact, k) if direction == 1 else hurwitz_move_inverse(fact, k)
    return fact


class _MoveTable:
    """The group elements met by one search, interned as small integer ids
    in first-seen order, with their inverses, each taken when first read,
    the memoized pair moves, and the search loop both searches share.

    `move(a, b, +1)` is the id of a b a^-1 and `move(a, b, -1)` the id of
    b^-1 a b, the new factor of a forward and of an inverse Hurwitz move.
    A move keeps the pair's product x = a b, and the move back from its
    new pairs (x a^-1, a) and (b, b^-1 x) gives b and a.  An entry is
    (x, forward id, inverse id), None where not yet known; x is None once
    the pair is complete: both results known, and both new pairs holding
    x and their move back.  So a pair never met costs three products (x,
    then x a^-1 and b^-1 x, interned in that order), one met as a new
    pair at most one, an equal pair (a, a), which moves to itself, none,
    and an element one `raw_inverse` the first time a pair it heads or
    ends needs a new result.

    `_search` is the one breadth-first loop both searches run, from one
    root (an orbit) or two (an equivalence search); it stores the roots,
    then a new state only while fewer than `budget` states are stored.
    The table belongs to one call and grows with the states it stores.
    """

    __slots__ = ("m", "_ids", "_raws", "_inverses", "_moves", "_parents")

    def __init__(self, m: int) -> None:
        self.m = m
        self._ids: dict[_Raw, int] = {}
        self._raws: list[_Raw] = []
        self._inverses: list[_Raw | None] = []
        self._moves: dict[tuple[int, int], tuple] = {}

    def _intern(self, raw: _Raw) -> int:
        i = self._ids.get(raw)
        if i is None:
            i = self._ids[_capped(raw)] = len(self._raws)
            self._raws.append(raw)
            self._inverses.append(None)
        return i

    def _inverse(self, i: int) -> _Raw:
        inv = self._inverses[i]
        if inv is None:
            inv = self._inverses[i] = raw_inverse(self.m, self._raws[i])
        return inv

    def state(self, fact: Factorization) -> tuple[int, ...]:
        return tuple(map(self._intern, canonical_key(fact)))

    def _complete(self, a: int, b: int) -> tuple:
        """The entry of (a, b) with both results known and its new pairs recorded."""
        m, raws, moves = self.m, self._raws, self._moves
        if a == b:  # (a, a) moves to (a, a) both ways
            entry = moves[a, a] = (None, a, a)
            return entry
        x, f, g = moves.get((a, b)) or (raw_multiply(m, raws[a], raws[b]), None, None)
        f = self._intern(raw_multiply(m, x, self._inverse(a))) if f is None else f
        g = self._intern(raw_multiply(m, self._inverse(b), x)) if g is None else g
        for pair, side, back in (((f, a), 2, b), ((b, g), 1, a)):
            old = moves.get(pair, (x, None, None))
            if old[0] is not None:
                moves[pair] = old[:side] + (back,) + old[side + 1 :]
        entry = moves[a, b] = (None, f, g)
        return entry

    def move(self, a: int, b: int, direction: int) -> int:
        side = 1 if direction > 0 else 2
        known = self._moves.get((a, b), (None, None, None))[side]
        return self._complete(a, b)[side] if known is None else known

    def neighbors(self, state: tuple[int, ...]) -> Iterable[tuple[int, tuple[int, ...]]]:
        """(move code, next state) in expansion order: lower positions
        first, forward (+k, at position k) before inverse (-k)."""
        moves = self._moves
        for k in range(1, len(state)):
            a, b = state[k - 1], state[k]
            entry = moves.get((a, b))
            if entry is None or entry[0] is not None:
                entry = self._complete(a, b)
            head, tail = state[: k - 1], state[k + 1 :]
            yield k, head + (entry[1], a) + tail
            yield -k, head + (b, entry[2]) + tail

    def _search(self, roots: tuple, budget: int) -> tuple[int, bool, tuple | None]:
        """(states stored, whether a side's orbit closed, the state where
        the distinct roots' sides met or None).  Each pass expands a whole
        level of the side with the smaller frontier and maps each new state
        to its move code in that side's own orientation: +k forward, -k
        inverse, 0 at the root.  The other side, `parents[side - 1]`, is
        the side itself for one root, so a meeting is tested before storing."""
        parents = self._parents = [{root: 0} for root in roots]
        frontiers = [deque([root]) for root in roots]
        stored = len(roots)
        while all(frontiers):
            side = 0 if len(frontiers[0]) <= len(frontiers[-1]) else 1
            mine, theirs, frontier = parents[side], parents[side - 1], frontiers[side]
            for _ in range(len(frontier)):
                for code, state in self.neighbors(frontier.popleft()):
                    if state in mine:
                        continue
                    if stored >= budget:
                        return stored, False, None
                    met = state in theirs
                    mine[state] = code
                    stored += 1
                    if met:
                        return stored, False, state
                    frontier.append(state)
        return stored, True, None

    def path_to_root(self, side: int, state: tuple[int, ...]) -> list[tuple[int, int]]:
        """The moves (k, +1/-1) from `state` back to the root of `side`.
        (f, a) came from (a, move(f, a, -1)) and (b, g) from
        (move(b, g, +1), b), each a known result: no product is taken."""
        parents, moves = self._parents[side], []
        while code := parents[state]:
            k = abs(code)
            p, q = state[k - 1], state[k]
            back = (q, self.move(p, q, -1)) if code > 0 else (self.move(p, q, 1), p)
            state = state[: k - 1] + back + state[k + 1 :]
            moves.append((k, 1 if code > 0 else -1))
        return moves

    def keys(self) -> frozenset:
        """The states of the last search as `canonical_key` tuples."""
        raws = self._raws
        return frozenset(tuple(raws[i] for i in st) for seen in self._parents for st in seen)


def hurwitz_equivalent(
    f1: Factorization, f2: Factorization, budget: int = 1_000_000
) -> EquivalenceResult:
    """Bounded bidirectional search for a Hurwitz move certificate.

    Returns EQUIVALENT with a replayable move sequence from f1 to f2,
    NOT_EQUIVALENT with the separating invariant (or orbit exhaustion), or
    INCONCLUSIVE when a new state would pass `budget` stored states; the
    two starting states are always stored.  Expansion order is
    deterministic: lower positions first, forward before inverse, smaller
    frontier expanded first.
    """
    if f1.strands != f2.strands:
        return EquivalenceResult(
            Verdict.NOT_EQUIVALENT, witness="strand counts differ"
        )
    if len(f1.factors) != len(f2.factors):
        return EquivalenceResult(
            Verdict.NOT_EQUIVALENT,
            witness="factor counts differ (length is a Hurwitz invariant)",
        )
    inv1, inv2 = hm_invariants(f1), hm_invariants(f2)
    if inv1.product_nf != inv2.product_nf:
        return EquivalenceResult(
            Verdict.NOT_EQUIVALENT, witness="products differ as braids"
        )
    if inv1.class_multiset != inv2.class_multiset:
        return EquivalenceResult(
            Verdict.NOT_EQUIVALENT,
            witness="factor class multisets differ",
        )

    table = _MoveTable(f1.strands)
    k1, k2 = table.state(f1), table.state(f2)
    if k1 == k2:
        return EquivalenceResult(Verdict.EQUIVALENT, moves=(), explored=0)
    stored, closed, met = table._search((k1, k2), budget)
    if met is not None:
        back = [(k, -d) for k, d in table.path_to_root(1, met)]
        moves = tuple(table.path_to_root(0, met)[::-1] + back)
        return EquivalenceResult(Verdict.EQUIVALENT, moves=moves, explored=stored)
    if not closed:
        return EquivalenceResult(Verdict.INCONCLUSIVE, explored=stored)
    # One side's orbit closed without meeting the other: disjoint orbits.
    return EquivalenceResult(
        Verdict.NOT_EQUIVALENT,
        witness="orbit enumerated without reaching the other factorization",
        explored=stored,
    )


@dataclasses.dataclass(frozen=True)
class OrbitResult:
    """`keys` holds `canonical_key` tuples, comparable only in one process."""

    keys: frozenset
    exhausted: bool
    explored: int


def orbit_enumerate(fact: Factorization, budget: int = 1_000_000) -> OrbitResult:
    """All canonical keys reachable by Hurwitz moves within the budget;
    `exhausted` is True when the orbit is closed under both move directions."""
    table = _MoveTable(fact.strands)
    stored, exhausted, _ = table._search((table.state(fact),), budget)
    return OrbitResult(table.keys(), exhausted, stored)
