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

The searches (`hurwitz_equivalent`, `orbit_enumerate`) run the classical
Hurwitz action on tuples of group elements, not on factor records: each
call interns the factors' canonical forms as small integer ids and
memoizes the pair move (a, b) -> a b a^-1 or b^-1 a b in a table that
lives for that call only.  A search state is a tuple of ids, an orbit is
a set of such tuples, and a certificate is a list of move positions, so
no conjugator word is spelled inside a search.  Words appear only where
a caller asks for factor records: `hurwitz_move`, `hurwitz_move_inverse`
and `apply_moves` rebuild each moved factor with its conjugator written
out as a word.

Raw forms live on the factor records: each carries its conjugator's and
its element's `(delta_power, factor_ids)` with the inverses, filled on
first use or handed over by whoever built it (a Hurwitz move, the sweep),
and they die with the record.  The searches use their per-call
`_MoveTable`; no module-level table remains but the small `_core_raws` LRU.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from functools import lru_cache
from typing import Iterable, Union

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
)
from .garside import (
    RAW_IDENTITY,
    NormalForm,
    nf_from_raw,
    raw_inverse,
    raw_multiply,
    raw_of_word,
    raw_to_letters,
)

SINGULARITY_NAMES = {1: "branch", 2: "node", 3: "cusp", 4: "tangency"}


_Raw = tuple[int, tuple[int, ...]]


class _CarriedRaws:
    """A factor record's raw forms as (form, inverse) pairs, filled on first
    use.  Not dataclass fields: eq, hash, repr and `replace` ignore them."""

    _conj_raws: tuple[_Raw, _Raw] | None = None
    _element_raws: tuple[_Raw, _Raw] | None = None


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

    @property
    def strands(self) -> int:
        return self.base.strands

    def singularity_class(self) -> str:
        return SINGULARITY_NAMES.get(self.exponent, f"power-{self.exponent}")

    def core_word(self) -> BraidWord:
        return power(half_twist_word(self.base), self.exponent)

    def degree(self) -> int:
        """Exponent sum of the denoted word (conjugation-invariant)."""
        return self.exponent

    def with_conjugator(self, conjugator: BraidWord) -> StructuredFactor:
        return StructuredFactor(conjugator, self.base, self.exponent)

    def class_label(self) -> tuple:
        """(kind, exponent, cycle type); cycle type taken from the core,
        which conjugation cannot change."""
        cyc = _core_cycle_type(_core_key(self))
        return ("halftwist", self.exponent, cyc)


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
        if not (1 <= self.low < self.high <= self.conjugator.strands):
            raise BraidError(
                f"block [{self.low}, {self.high}] invalid for "
                f"{self.conjugator.strands} strands"
            )
        if self.exponent < 1:
            raise BraidError(f"exponent must be positive, got {self.exponent}")

    @property
    def strands(self) -> int:
        return self.conjugator.strands

    @property
    def width(self) -> int:
        return self.high - self.low + 1

    def singularity_class(self) -> str:
        return f"full-twist-on-{self.width}" if self.exponent == 2 else (
            f"block-{self.width}-power-{self.exponent}"
        )

    def core_word(self) -> BraidWord:
        return power(delta_word(self.strands, self.low, self.high), self.exponent)

    def degree(self) -> int:
        return self.exponent * self.width * (self.width - 1) // 2

    def with_conjugator(self, conjugator: BraidWord) -> BlockFactor:
        return BlockFactor(conjugator, self.low, self.high, self.exponent)

    def class_label(self) -> tuple:
        """A width-2 block is the band half-twist (low, low+1), so it takes
        the half-twist label; Hurwitz-equivalent tuples share labels."""
        cyc = _core_cycle_type(_core_key(self))
        if self.width == 2:
            return ("halftwist", self.exponent, cyc)
        return ("blocktwist", self.width, self.exponent, cyc)


Factor = Union[StructuredFactor, BlockFactor]


def expand(factor: Factor) -> BraidWord:
    """The braid word a factor denotes, freely reduced."""
    return compose(factor.conjugator, factor.core_word(), invert(factor.conjugator))


def _carrying(factor: Factor, conj: tuple[_Raw, _Raw]) -> Factor:
    """`factor`, now carrying `conj` as its conjugator's (form, inverse)."""
    object.__setattr__(factor, "_conj_raws", conj)
    return factor


def _conjugator_raws(factor: Factor) -> tuple[_Raw, _Raw]:
    """(canonical form, inverse canonical form) of a factor's conjugator."""
    pair = factor._conj_raws
    if pair is None:
        m = factor.strands
        raw = raw_of_word(m, free_reduce(factor.conjugator.letters))
        pair = (raw, raw_inverse(m, raw))
        _carrying(factor, pair)
    return pair


@lru_cache(maxsize=4096)
def _core_raws(factor_core: tuple) -> tuple[_Raw, _Raw]:
    kind, strands, low, high, exponent = factor_core
    if kind == "halftwist":
        base_word = half_twist_word(HalfTwist(strands, low, high))
    else:
        base_word = delta_word(strands, low, high)
    base = raw_of_word(strands, base_word.letters)
    raw = RAW_IDENTITY
    for _ in range(exponent):
        raw = raw_multiply(strands, raw, base)
    return raw, raw_inverse(strands, raw)


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


def _factor_raws(factor: Factor) -> tuple[_Raw, _Raw]:
    """(canonical form, inverse canonical form) of the factor's element."""
    pair = factor._element_raws
    if pair is None:
        m = factor.strands
        conj, conj_inv = _conjugator_raws(factor)
        core, _ = _core_raws(_core_key(factor))
        element = raw_multiply(m, raw_multiply(m, conj, core), conj_inv)
        pair = (element, raw_inverse(m, element))
        object.__setattr__(factor, "_element_raws", pair)
    return pair


@dataclasses.dataclass(frozen=True)
class Factorization:
    """Ordered factor tuple in B_strands; composes left to right."""

    strands: int
    factors: tuple[Factor, ...] = ()

    def __post_init__(self) -> None:
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
    out = RAW_IDENTITY
    for f in fact.factors:
        out = raw_multiply(fact.strands, out, _factor_raws(f)[0])
    return out


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
    # deg Delta^2 = m(m-1) settles the question without multiplying.
    if m < 2 or fact.degree() != m * (m - 1):
        return False
    return _product_raw(fact) == _FULL_TWIST_RAW


def canonical_key(fact: Factorization) -> tuple:
    """Hashable key equal exactly when the factor tuples agree as sequences
    of group elements (conjugator spelling is irrelevant)."""
    return tuple(_factor_raws(f)[0] for f in fact.factors)


def _move(fact: Factorization, k: int, forward: bool) -> Factorization:
    """The Hurwitz move at 1-based position k.  The moved factor's new
    conjugator is spelled as its canonical word, and the record carries
    the conjugator's form and inverse."""
    if not (1 <= k < len(fact.factors)):
        raise BraidError(f"move position {k} out of range 1..{len(fact.factors) - 1}")
    m = fact.strands
    a, b = fact.factors[k - 1], fact.factors[k]
    # a b a^-1 conjugates b's conjugator by a; b^-1 a b conjugates a's by b^-1.
    by, old = (_factor_raws(a)[0], b) if forward else (_factor_raws(b)[1], a)
    conj = raw_multiply(m, by, _conjugator_raws(old)[0])
    moved = old.with_conjugator(BraidWord(m, raw_to_letters(m, conj)))
    _carrying(moved, (conj, raw_inverse(m, conj)))
    pair = (moved, a) if forward else (b, moved)
    return Factorization(m, fact.factors[: k - 1] + pair + fact.factors[k + 1 :])


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
    """Replay a move certificate: (k, +1) forward move, (k, -1) inverse."""
    for k, direction in moves:
        fact = hurwitz_move(fact, k) if direction > 0 else hurwitz_move_inverse(fact, k)
    return fact


class _MoveTable:
    """The group elements met by one search, interned as small integer ids
    in first-seen order, with their inverses and the memoized pair moves.

    `move(a, b, +1)` is the id of a b a^-1 and `move(a, b, -1)` the id of
    b^-1 a b, the new factor of a forward and of an inverse Hurwitz move; a
    table miss costs two `raw_multiply` calls, and one `raw_inverse` when
    the result is an element not seen before.  The table belongs to one
    call and grows with the states that call stores.
    """

    __slots__ = ("m", "_ids", "_raws", "_inverses", "_moves")

    def __init__(self, m: int) -> None:
        self.m = m
        self._ids: dict[_Raw, int] = {}
        self._raws: list[_Raw] = []
        self._inverses: list[_Raw] = []
        self._moves: dict[tuple[int, int, int], int] = {}

    def _intern(self, raw: _Raw, inverse: _Raw | None = None) -> int:
        i = self._ids.get(raw)
        if i is None:
            i = self._ids[raw] = len(self._raws)
            self._raws.append(raw)
            self._inverses.append(
                raw_inverse(self.m, raw) if inverse is None else inverse
            )
        return i

    def state(self, fact: Factorization) -> tuple[int, ...]:
        return tuple(self._intern(*_factor_raws(f)) for f in fact.factors)

    def move(self, a: int, b: int, direction: int) -> int:
        key = (a, b, direction)
        out = self._moves.get(key)
        if out is None:
            m, raws, invs = self.m, self._raws, self._inverses
            if direction > 0:
                raw = raw_multiply(m, raw_multiply(m, raws[a], raws[b]), invs[a])
            else:
                raw = raw_multiply(m, raw_multiply(m, invs[b], raws[a]), raws[b])
            out = self._moves[key] = self._intern(raw)
        return out

    def neighbors(
        self, state: tuple[int, ...]
    ) -> Iterable[tuple[tuple[int, int], tuple[int, ...]]]:
        """(move, next state) in expansion order: lower positions first,
        forward before inverse."""
        for k in range(1, len(state)):
            a, b = state[k - 1], state[k]
            head, tail = state[: k - 1], state[k + 1 :]
            yield (k, 1), head + (self.move(a, b, 1), a) + tail
            yield (k, -1), head + (b, self.move(a, b, -1)) + tail

    def keys(self, states: Iterable[tuple[int, ...]]) -> frozenset:
        """The states as `canonical_key` tuples."""
        raws = self._raws
        return frozenset(tuple(raws[i] for i in st) for st in states)


def hurwitz_equivalent(
    f1: Factorization, f2: Factorization, budget: int = 1_000_000
) -> EquivalenceResult:
    """Bounded bidirectional search for a Hurwitz move certificate.

    Returns EQUIVALENT with a replayable move sequence from f1 to f2,
    NOT_EQUIVALENT with the separating invariant (or orbit exhaustion), or
    INCONCLUSIVE when `budget` stored states were reached first.  Expansion
    order is deterministic: lower positions first, forward before inverse,
    smaller frontier expanded first.
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

    # parent maps: state -> (parent_state, move) with move the step applied
    # at the parent, in that side's own forward orientation.
    sides = (
        {"seen": {k1: (None, None)}, "frontier": deque([k1])},
        {"seen": {k2: (None, None)}, "frontier": deque([k2])},
    )
    stored = 2

    def path_to_root(side: int, key: tuple) -> list[tuple[int, int]]:
        moves = []
        while True:
            parent, move = sides[side]["seen"][key]
            if parent is None:
                return moves
            moves.append(move)
            key = parent

    def certificate(meet: tuple) -> tuple[tuple[int, int], ...]:
        fwd = list(reversed(path_to_root(0, meet)))
        back = [(k, -d) for (k, d) in path_to_root(1, meet)]
        return tuple(fwd + back)

    while sides[0]["frontier"] and sides[1]["frontier"]:
        side = 0 if len(sides[0]["frontier"]) <= len(sides[1]["frontier"]) else 1
        other = 1 - side
        frontier = sides[side]["frontier"]
        for _ in range(len(frontier)):
            key = frontier.popleft()
            for move, nkey in table.neighbors(key):
                if nkey in sides[side]["seen"]:
                    continue
                sides[side]["seen"][nkey] = (key, move)
                stored += 1
                if nkey in sides[other]["seen"]:
                    return EquivalenceResult(
                        Verdict.EQUIVALENT,
                        moves=certificate(nkey),
                        explored=stored,
                    )
                frontier.append(nkey)
                if stored >= budget:
                    return EquivalenceResult(
                        Verdict.INCONCLUSIVE, explored=stored
                    )
    # One side's orbit closed without meeting the other: disjoint orbits.
    return EquivalenceResult(
        Verdict.NOT_EQUIVALENT,
        witness="orbit enumerated without reaching the other factorization",
        explored=stored,
    )


@dataclasses.dataclass(frozen=True)
class OrbitResult:
    keys: frozenset
    exhausted: bool
    explored: int


def orbit_enumerate(fact: Factorization, budget: int = 1_000_000) -> OrbitResult:
    """All canonical keys reachable by Hurwitz moves within the budget;
    `exhausted` is True when the orbit is closed under both move directions."""
    table = _MoveTable(fact.strands)
    start = table.state(fact)
    seen = {start}
    frontier = deque([start])
    while frontier:
        cur = frontier.popleft()
        for _move, nxt in table.neighbors(cur):
            if nxt in seen:
                continue
            if len(seen) >= budget:
                return OrbitResult(table.keys(seen), False, len(seen))
            seen.add(nxt)
            frontier.append(nxt)
    return OrbitResult(table.keys(seen), True, len(seen))
