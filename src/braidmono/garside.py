"""
Left-greedy (left-weighted) canonical forms for braid words.

Every braid decomposes uniquely as Delta^p A_1 ... A_k where each A_i is a
permutation braid (a positive braid in which every pair of strands crosses
at most once, so A_i is determined by its permutation image), no A_i is the
identity or Delta, and every adjacent pair is left-weighted: each crossing
that could be slid from the front of A_{i+1} to the back of A_i already sits
in A_i.  Two words denote the same braid exactly when these canonical forms
coincide, which turns the canonical form into a hashable dictionary key for
orbit searches, not just an equality oracle.

The descent-set combinatorics that drives the normalization:

* a permutation braid A starts with sigma_i  iff  i is a descent of pi_A^-1,
* A ends with sigma_i                        iff  i is a descent of pi_A,

where pi_A is the permutation of `braid.permutation_of` and a descent of pi
is a position i with pi(i) > pi(i+1).

Hurwitz walks and orbit searches multiply canonical forms millions of times,
so the hot kernel runs on interned factors: every permutation braid ever
seen gets a small integer id, and canonical forms travel through the kernel
as `(delta_power, factor_id_tuple)` pairs; the public `NormalForm` with its
`Permutation` factors is materialized only at API boundaries.

Every product is formed by one loop, `_push_all`, which multiplies a
left-weighted factor list by a run of simple elements, each by one leftward
pass of slides (the left-greedy step of Epstein et al., *Word Processing in
Groups*, ch. 9).  `raw_multiply` runs it once on the right operand's
factors; `raw_of_word` runs it once on the word's letters, sigma_i or the
positive part Delta sigma_i^-1 of sigma_i^-1, with every Delta^-1 moved
to the front, and `raw_cable` on the doubled factors.  Costs, for m strands:

* a push costs one slide per pair it changes and drops trailing identities,
  so a word whose canonical length stays bounded (a sweep conjugator is a
  single permutation braid) normalizes in time linear in its letters;
* a push of the last factor's complement, whose product with it is Delta,
  costs O(1) when that complement is already in `_RCOMP`: the factor is
  popped and the twist count goes up by one, with no slide and no call.
  Most pushes of a Hurwitz walk are such cancellations, in runs, of a
  conjugator against its inverse;
* a `slide` cache hit is one dict lookup.  A miss reads the descent masks
  of the two factors from the per-id tables, so it costs O(1) when no
  crossing can move; otherwise it costs O(m) plus two comparisons per
  moved crossing, and one C-level `del` and `insert` per list for each
  strand that moves, however far;
* each strand a slide moves costs one `del` and one `insert`, so sliding
  a factor with nearly every crossing costs O(m) moves, each an O(m)
  scan: a product should not push a near-Delta factor it can avoid;
* `raw_cable` of a form with no negative Delta power slides nothing: its
  factors are appended as they come;
* `raw_to_letters` lifts each factor afresh, in O(m + inversions), and
  Delta only for a nonzero power.
* `words_equal` normalizes only the middles of the two reduced words,
  after C-speed scans for their common prefix and suffix and a C-speed
  exponent-sum check: a pair that differs in a few letters pushes only
  those, and a pair whose sums differ pushes none.

Memory: one policy, in two shapes besides the slide cache (one entry per
distinct pair ever slid).  Facts about one permutation braid that a
product reads (`tau`, the right complement, the slide inputs) live in
per-id lists parallel to the interned tuples, one entry per id, -1 or None
until first use; a whole id list is twisted with one C-level map through
`_TAU`.  A minimal word is not stored: only the text and API boundary
spells one.  Constants of one strand count live in one row,
`_STRANDS[m]`, built on first use and read once per product or word.
Nothing is evicted: the tables grow with the permutation braids and pairs
a process meets.
"""

from __future__ import annotations

import dataclasses
from itertools import compress, count
from operator import ne

from .braid import BraidWord, Permutation, _check_same_strands, free_reduce

# --- permutation-braid interning -----------------------------------------

_PERM_IDS: dict[tuple[int, ...], int] = {}
_PERM_TUPLES: list[tuple[int, ...]] = []


# Per-id tables parallel to _PERM_TUPLES, -1 (None) until first used, all
# read by products: _TAU and _RCOMP by the push loop and `raw_inverse`, and
# _ENDS, _STARTS and _PADINV by a slide miss, as the descent masks of p and
# of p^-1, and p^-1 padded with the sentinels 0 and m+1 so the slide loop
# needs no range check.
_TAU: list[int] = []
_RCOMP: list[int] = []
_ENDS: list[int] = []
_STARTS: list[int] = []
_PADINV: list[tuple[int, ...] | None] = []


def _pid(t: tuple[int, ...]) -> int:
    i = _PERM_IDS.get(t)
    if i is None:
        i = len(_PERM_TUPLES)
        _PERM_IDS[t] = i
        _PERM_TUPLES.append(t)
        _TAU.append(-1)
        _RCOMP.append(-1)
        _ENDS.append(-1)
        _STARTS.append(-1)
        _PADINV.append(None)
    return i


# One row per strand count m, built on first use by `_strands`:
# (identity id, Delta id, gens, negs) where gens[i] is sigma_i and negs[i]
# the positive part Delta sigma_i^-1 of sigma_i^-1, for i = 1..m-1.
_STRANDS: dict[int, tuple[int, int, list[int], list[int]]] = {}


def _swap(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    return p[: i - 1] + (p[i], p[i - 1]) + p[i + 1 :]


def _strands(m: int) -> tuple[int, int, list[int], list[int]]:
    row = _STRANDS.get(m)
    if row is None:
        ident, w0 = tuple(range(1, m + 1)), tuple(range(m, 0, -1))
        gens = [-1] + [_pid(_swap(ident, i)) for i in range(1, m)]
        negs = [-1] + [_pid(_swap(w0, i)) for i in range(1, m)]
        row = _STRANDS[m] = (_pid(ident), _pid(w0), gens, negs)
    return row


def _inverse_tuple(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p, start=1):
        inv[v - 1] = i
    return tuple(inv)


def _descent_mask(p: tuple[int, ...]) -> int:
    """Bit i set iff p(i) > p(i+1)."""
    mask = 0
    for i in range(1, len(p)):
        if p[i - 1] > p[i]:
            mask |= 1 << i
    return mask


def _tau_id(f: int) -> int:
    """Conjugation by Delta: x -> w0(p(w0(x))); an involution on factors."""
    t = _TAU[f]
    if t < 0:
        p = _PERM_TUPLES[f]
        m = len(p)
        t = _pid(tuple(m + 1 - p[m - x] for x in range(1, m + 1)))
        _TAU[f] = t
        _TAU[t] = f
    return t


def _rcomp_id(f: int) -> int:
    """Right complement: the permutation braid C with (factor) C = Delta."""
    c = _RCOMP[f]
    if c < 0:
        c = _RCOMP[f] = _pid(_inverse_tuple(_PERM_TUPLES[f])[::-1])
    return c


def _mapped(table: list[int], fill, ids) -> list[int]:
    """Every id mapped through `table` at C speed; a miss (-1) is filled by
    `fill`, which computes and stores that one entry."""
    out = list(map(table.__getitem__, ids))
    if -1 in out:
        out = [v if v >= 0 else fill(f) for f, v in zip(ids, out)]
    return out


def _twist(ids) -> list[int]:
    """tau of every id."""
    return _mapped(_TAU, _tau_id, ids)


_slide_cache: dict[tuple[int, int], tuple[int, int]] = {}


def _ends(f: int) -> int:
    """Descent mask of p: the letters a permutation braid can end with."""
    e = _ENDS[f]
    if e < 0:
        e = _ENDS[f] = _descent_mask(_PERM_TUPLES[f])
    return e


def _starts(f: int) -> int:
    """Descent mask of p^-1: the letters a permutation braid can start with."""
    s = _STARTS[f]
    if s < 0:
        s = _STARTS[f] = _descent_mask(_inverse_tuple(_PERM_TUPLES[f]))
    return s


def _padded_inverse(f: int) -> tuple[int, ...]:
    """(0, p^-1(1), ..., p^-1(m), m + 1)."""
    b = _PADINV[f]
    if b is None:
        p = _PERM_TUPLES[f]
        b = _PADINV[f] = (0, *_inverse_tuple(p), len(p) + 1)
    return b


def _slide_ids(fa: int, fb: int) -> tuple[int, int]:
    """Left-weight the adjacent factor pair, preserving the product.

    While some sigma_i can start b but cannot end a, transfer that crossing:
    a <- a sigma_i, b <- sigma_i^-1 b.  At the fixpoint every starting
    letter of b already finishes a.  The fixpoint is a x with x the left
    meet of b and a^-1 Delta, so the order of the transfers does not
    matter.

    The masks of the letters that start b and end a come from the per-id
    tables, so a miss where no crossing can move costs O(1).  Otherwise
    position i holds the item (a(i), b^-1(i)), a transfer at i swaps items
    i and i+1, and the fixpoint is an insertion sort.  The movable pairs
    come from the mask, lowest first; the right item of each slides left
    past every item it can swap with, in one scan, and moves by one `del`
    and one `insert` per list.  The prefix up to it is then settled, the
    pair it leaves behind is new and checked next, and the pairs right of
    that are as the mask says.  The sentinels 0 and m+1 at both ends stop
    every scan.  The final b^-1 fills the new b's `_PADINV` entry.
    """
    hit = _slide_cache.get((fa, fb))
    if hit is not None:
        return hit
    d = _starts(fb) & ~_ends(fa)
    if not d:
        out = (fa, fb)
    else:
        al = [0, *_PERM_TUPLES[fa], len(_PERM_TUPLES[fa]) + 1]
        bl = list(_padded_inverse(fb))
        i = (d & -d).bit_length() - 1
        while True:
            x, y = al[i + 1], bl[i + 1]
            k = i
            while bl[k] > y and al[k] < x:
                k -= 1
            if k < i:
                del al[i + 1], bl[i + 1]
                al.insert(k + 1, x)
                bl.insert(k + 1, y)
                i += 1
                continue
            d &= -2 << i  # the pairs at i and below are settled
            if not d:
                break
            i = (d & -d).bit_length() - 1
        b2 = _pid(_inverse_tuple(bl[1:-1]))
        _PADINV[b2] = tuple(bl)
        out = (_pid(tuple(al[1:-1])), b2)
    _slide_cache[(fa, fb)] = out
    return out


def _lift_letters(f: int) -> tuple[int, ...]:
    """A minimal positive word for a permutation braid, peeled from the
    left: repeatedly strip sigma_i for the least descent i of p^-1.  A swap
    at i can make only i - 1 the new least descent, so the scan resumes
    there: O(m + inversions) per call."""
    inv = list(_inverse_tuple(_PERM_TUPLES[f]))
    word = []
    i = 1
    while i < len(inv):
        if inv[i - 1] > inv[i]:
            word.append(i)
            inv[i - 1], inv[i] = inv[i], inv[i - 1]
            i = max(i - 1, 1)
        else:
            i += 1
    return tuple(word)


# --- kernel operations on raw forms ---------------------------------------
#
# A raw form is (delta_power, factor_ids) with the strand count carried by
# the caller.  Factor id tuples are always fully left-weighted with no
# Delta or identity padding.

RAW_IDENTITY = (0, ())


def _strip_ids(factors: list[int], m: int) -> tuple[int, tuple[int, ...]]:
    """Drop trailing identities, strip leading Deltas into a power carry.
    In B_1 the identity is also Delta, so the identities go first."""
    ident, w0, _, _ = _strands(m)
    lo, hi = 0, len(factors)
    while lo < hi and factors[hi - 1] == ident:
        hi -= 1
    while lo < hi and factors[lo] == w0:
        lo += 1
    return lo, tuple(factors[lo:hi])


def _push_all(m: int, out: list[int], factors, weighted: bool, twisted: int = 0):
    """Raw form of Delta^twisted tau^twisted(out) times the simple
    `factors`, for a left-weighted list `out`, which is used up.

    A factor enters as its tau^twisted-image.  If it is the complement of
    the last factor (`_RCOMP`), the two make Delta: the last is popped and
    `twisted` goes up by one, as the slide to (Delta, 1) and the cut would
    do.  Otherwise it is appended and slid leftward
    until a slide changes nothing.  A slide that forms Delta ends the pass:
    carried on, the Delta would twist every factor on its way to the
    front, so it is cut out, the suffix right of the cut is twisted and
    `twisted` goes up by one.  Trailing identities are popped.  `weighted`
    factors are left-weighted among themselves, so after a push that
    changes nothing the rest is appended as it is.
    """
    ident, w0, _, _ = _strands(m)
    rcomp, tau = _RCOMP, _TAU
    for idx, f in enumerate(factors):
        if twisted & 1:
            t = tau[f]
            f = t if t >= 0 else _tau_id(f)
        if out and rcomp[out[-1]] == f:
            out.pop()
            twisted += 1
            continue
        out.append(f)
        touched = False
        for j in range(len(out) - 2, -1, -1):
            a = out[j]
            a2, b2 = _slide_ids(a, out[j + 1])
            if a2 == a:
                break
            touched = True
            if a2 == w0:
                out[j + 1] = b2
                out[j:] = _twist(out[j + 1 :])
                twisted += 1
                break
            out[j], out[j + 1] = a2, b2
        while out and out[-1] == ident:
            out.pop()
        if weighted and not touched:
            rest = factors[idx + 1 :]
            out.extend(_twist(rest) if twisted & 1 else rest)
            break
    shift, fids = _strip_ids(_twist(out) if twisted & 1 else out, m)
    return (twisted + shift, fids)


def raw_multiply(m: int, a: tuple[int, tuple[int, ...]], b: tuple[int, tuple[int, ...]]):
    """Raw form of the product a b (a first) of two raw forms in B_m.

    Delta^p L Delta^q R = Delta^(p+q) tau^q(L) R, so R's factors are pushed
    onto tau^q(L).
    """
    p, left = a
    q, right = b
    power, fids = _push_all(m, _twist(left) if q & 1 else list(left), right, True)
    return (p + q + power, fids)


def raw_inverse(m: int, a: tuple[int, tuple[int, ...]]):
    """Closed-form inverse: (Delta^p A_1...A_k)^-1 = Delta^-(p+k) B_1...B_k
    with B_i the tau^(p+k-i+1)-twist of the right complement of A_{k+1-i}
    (the twist count is the number of Delta carries passing the factor on
    their way to the front).  The result is already left-weighted: the
    complements of the reversed ids, every other one twisted."""
    p, fids = a
    k = len(fids)
    out = _mapped(_RCOMP, _rcomp_id, fids[::-1])
    # B_i, at index i - 1, is twisted when p + k - i + 1 is odd.
    odd = (p + k + 1) & 1
    out[odd::2] = _twist(out[odd::2])
    return (-(p + k), tuple(out))


def raw_of_word(m: int, letters: tuple[int, ...]):
    """Raw form of a word in B_m, its letters pushed in one pass.

    sigma_i^-1 = Delta^-1 (Delta sigma_i^-1) and x Delta^-1 = Delta^-1 tau(x).
    With every Delta^-1 moved to the front, the part of letter t (sigma_i or
    Delta sigma_i^-1) takes one twist per negative letter after it.  A
    twisted part is read from the row by index: tau(sigma_i) = sigma_{m-i}
    and tau(Delta sigma_i^-1) = Delta sigma_{m-i}^-1.
    """
    _, _, gens, negs = _strands(m)
    parts = []
    # Each part is twisted once per negative letter up to its own; when
    # their count is odd, one more twist of all leaves one per letter after.
    neg = 0
    for letter in letters:
        if letter > 0:
            parts.append(gens[m - letter] if neg & 1 else gens[letter])
        else:
            neg += 1
            parts.append(negs[m + letter] if neg & 1 else negs[-letter])
    return _push_all(m, [], _twist(parts) if neg & 1 else parts, False, -neg)


def raw_of_permutation(m: int, images) -> tuple[int, tuple[int, ...]]:
    """Raw form of the permutation braid of `images`, a permutation of
    1..m: Delta itself, the identity, or one factor."""
    return _strip_ids([_pid(tuple(images))], m)


def raw_cable(n: int, raw: tuple[int, tuple[int, ...]]) -> tuple[int, tuple[int, ...]]:
    """The 2-cable j -> (2j-1, 2j) of a raw form in B_n, in B_2n: each
    factor's doubled permutation, after cable(Delta_n)^p.  cable(Delta_n) is
    D, the doubled reversal: Delta_2n = D E, where E = prod_j sigma_{2j-1}
    is D's images reversed and tau(E) = E, so D^-1 = Delta^-1 E.  For p >= 0
    the factors are left-weighted as they come."""
    p, fids = raw
    doubled = [_pid(tuple(x for v in _PERM_TUPLES[f] for x in (2 * v - 1, 2 * v))) for f in fids]
    reversal = tuple(x for v in range(n, 0, -1) for x in (2 * v - 1, 2 * v))
    lead = _pid(reversal if p >= 0 else reversal[::-1])
    return _push_all(2 * n, [], [lead] * abs(p) + doubled, p >= 0, min(p, 0))


def raw_to_letters(m: int, raw: tuple[int, tuple[int, ...]]) -> tuple[int, ...]:
    p, fids = raw
    d = _lift_letters(_strands(m)[1]) if p else ()
    if p < 0:
        d = tuple(-l for l in reversed(d))
    letters = list(d * abs(p))
    for f in fids:
        letters.extend(_lift_letters(f))
    return tuple(letters)


def raw_permutation(m: int, raw: tuple[int, tuple[int, ...]]) -> Permutation:
    """Symmetric-group image of a raw form, read off its factors: the
    reversal raised to the delta power, then each factor's permutation."""
    p, fids = raw
    images = list(range(m, 0, -1)) if p % 2 else list(range(1, m + 1))
    for f in fids:
        images = [images[j - 1] for j in _PERM_TUPLES[f]]
    return Permutation(tuple(images))


# --- public API ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class NormalForm:
    """Left-greedy canonical form Delta^delta_power A_1 ... A_k of a braid.

    Componentwise equality of NormalForms is equality of braids; instances
    are hashable and safe to use as search keys.
    """

    strands: int
    delta_power: int
    canonical_factors: tuple[Permutation, ...]

    def is_identity(self) -> bool:
        return self.delta_power == 0 and not self.canonical_factors

    def canonical_length(self) -> int:
        return len(self.canonical_factors)

    def key(self) -> tuple:
        """Flat hashable encoding of the form, independent of the
        process's permutation-id numbering."""
        return (
            self.strands,
            self.delta_power,
            tuple(p.images for p in self.canonical_factors),
        )


def nf_from_raw(m: int, raw: tuple[int, tuple[int, ...]]) -> NormalForm:
    p, fids = raw
    return NormalForm(m, p, tuple(Permutation(_PERM_TUPLES[f]) for f in fids))


def nf_to_raw(nf: NormalForm) -> tuple[int, tuple[int, ...]]:
    return (nf.delta_power, tuple(_pid(p.images) for p in nf.canonical_factors))


def normal_form(w: BraidWord) -> NormalForm:
    """Left-greedy canonical form; equal braids yield identical results."""
    return nf_from_raw(w.strands, raw_of_word(w.strands, free_reduce(w.letters)))


def words_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Solve the word problem: do the two words denote the same braid?
    P X Q = P Y Q iff X = Y, and the exponent sum is a homomorphism to Z, so
    only the middles of the reduced words are normalized, if their sums agree."""
    _check_same_strands(w1, w2)
    u, v = free_reduce(w1.letters), free_reduce(w2.letters)
    head = next(compress(count(), map(ne, u, v)), min(len(u), len(v)))
    u, v = u[head:], v[head:]
    tail = next(compress(count(), map(ne, reversed(u), reversed(v))), min(len(u), len(v)))
    x, y = u[:len(u) - tail], v[:len(v) - tail]
    if len(x) - len(y) != 2 * (sum(map((0).__gt__, x)) - sum(map((0).__gt__, y))):
        return False  # exponent sums differ: len - 2 * (negative letters)
    return raw_of_word(w1.strands, x) == raw_of_word(w2.strands, y)
