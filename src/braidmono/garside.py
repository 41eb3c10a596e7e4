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
seen gets a small integer id, and the pair-rewriting (`slide`) results, the
Delta-conjugation twist, factor complements and minimal positive words are
all memoized per id.  Canonical forms travel through the kernel as
`(delta_power, factor_id_tuple)` pairs; the public `NormalForm` with its
`Permutation` factors is materialized only at API boundaries.

Every product is formed by one step, `_push`, which multiplies a
left-weighted factor list by one simple element in a single leftward pass
of slides (Epstein et al., *Word Processing in Groups*, ch. 9).  Letters push
sigma_i, or the positive part Delta sigma_i^-1 of sigma_i^-1; `raw_multiply`
pushes the right operand's factors onto the left operand's.  Costs, for m
strands:

* a push costs one slide per pair it changes and drops trailing identities,
  so a word whose canonical length stays bounded (a sweep conjugator is a
  single permutation braid) normalizes in time linear in its letters;
* a `slide` cache hit is one dict lookup; a miss costs O(m + crossings
  moved), since each moved crossing patches the two descent masks locally.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

from .braid import BraidWord, BraidError, Permutation, delta_word, free_reduce

# --- permutation-braid interning -----------------------------------------

_PERM_IDS: dict[tuple[int, ...], int] = {}
_PERM_TUPLES: list[tuple[int, ...]] = []


def _pid(t: tuple[int, ...]) -> int:
    i = _PERM_IDS.get(t)
    if i is None:
        i = len(_PERM_TUPLES)
        _PERM_IDS[t] = i
        _PERM_TUPLES.append(t)
    return i


@lru_cache(maxsize=None)
def _id_pid(m: int) -> int:
    return _pid(tuple(range(1, m + 1)))


@lru_cache(maxsize=None)
def _w0_pid(m: int) -> int:
    return _pid(tuple(range(m, 0, -1)))


@lru_cache(maxsize=None)
def _gen_pid(m: int, i: int) -> int:
    """sigma_i as a permutation braid."""
    images = list(range(1, m + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return _pid(tuple(images))


@lru_cache(maxsize=None)
def _neg_pid(m: int, i: int) -> int:
    """The positive part of sigma_i^-1 = Delta^-1 (Delta sigma_i^-1)."""
    images = list(range(m, 0, -1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return _pid(tuple(images))


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


_tau_cache: dict[int, int] = {}


def _tau_id(f: int) -> int:
    """Conjugation by Delta: x -> w0(p(w0(x))); an involution on factors."""
    t = _tau_cache.get(f)
    if t is None:
        p = _PERM_TUPLES[f]
        m = len(p)
        t = _pid(tuple(m + 1 - p[m - x] for x in range(1, m + 1)))
        _tau_cache[f] = t
        _tau_cache[t] = f
    return t


_rcomp_cache: dict[int, int] = {}


def _rcomp_id(f: int) -> int:
    """Right complement: the permutation braid C with (factor) C = Delta."""
    c = _rcomp_cache.get(f)
    if c is None:
        c = _pid(_inverse_tuple(_PERM_TUPLES[f])[::-1])
        _rcomp_cache[f] = c
    return c


_slide_cache: dict[tuple[int, int], tuple[int, int]] = {}


def _slide_ids(fa: int, fb: int) -> tuple[int, int]:
    """Left-weight the adjacent factor pair, preserving the product.

    While some sigma_i can start b but cannot end a, transfer that crossing:
    a <- a sigma_i, b <- sigma_i^-1 b.  At the fixpoint every starting
    letter of b already finishes a.  A transfer swaps entries i-1, i of a
    and of b^-1, so only the descent bits at i-1, i, i+1 can change; the
    two masks are patched there instead of being recomputed.
    """
    hit = _slide_cache.get((fa, fb))
    if hit is not None:
        return hit
    al = list(_PERM_TUPLES[fa])
    binv = list(_inverse_tuple(_PERM_TUPLES[fb]))
    ma = _descent_mask(al)
    mb = _descent_mask(binv)
    d = mb & ~ma
    if not d:
        out = (fa, fb)
    else:
        n = len(al)
        while d:
            i = (d & -d).bit_length() - 1
            al[i - 1], al[i] = al[i], al[i - 1]
            binv[i - 1], binv[i] = binv[i], binv[i - 1]
            # Bit i was a descent of b^-1 and not of a; the swap flips both.
            ma |= 1 << i
            mb &= ~(1 << i)
            for k in (i - 1, i + 1):
                if 0 < k < n:
                    bit = 1 << k
                    ma = ma | bit if al[k - 1] > al[k] else ma & ~bit
                    mb = mb | bit if binv[k - 1] > binv[k] else mb & ~bit
            d = mb & ~ma
        out = (_pid(tuple(al)), _pid(_inverse_tuple(binv)))
    _slide_cache[(fa, fb)] = out
    return out


_lift_cache: dict[int, tuple[int, ...]] = {}


def _lift_letters(f: int) -> tuple[int, ...]:
    """A minimal positive word for a permutation braid (peeled from the
    left: repeatedly strip a sigma_i with i a descent of p^-1)."""
    w = _lift_cache.get(f)
    if w is None:
        p = _PERM_TUPLES[f]
        word = []
        inv = list(_inverse_tuple(p))
        n = len(p)
        while True:
            i = next((i for i in range(1, n) if inv[i - 1] > inv[i]), None)
            if i is None:
                break
            word.append(i)
            inv[i - 1], inv[i] = inv[i], inv[i - 1]
        w = tuple(word)
        _lift_cache[f] = w
    return w


# --- kernel operations on raw forms ---------------------------------------
#
# A raw form is (delta_power, factor_ids) with the strand count carried by
# the caller.  Factor id tuples are always fully left-weighted with no
# Delta or identity padding.

RAW_IDENTITY = (0, ())


def _strip_ids(factors: list[int], m: int) -> tuple[int, tuple[int, ...]]:
    """Strip leading Deltas into a power carry, drop trailing identities."""
    w0 = _w0_pid(m)
    ident = _id_pid(m)
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == w0:
        lo += 1
    while lo < hi and factors[hi - 1] == ident:
        hi -= 1
    return lo, tuple(factors[lo:hi])


def _push(m: int, out: list[int], f: int, twisted: int) -> tuple[int, bool]:
    """Multiply the left-weighted list `out`, which stands for
    Delta^twisted tau^twisted(out), by the simple factor f, in place.

    A slide that forms Delta ends the pass: carried on, the Delta would
    reach the front and twist every factor it passes, so instead it is cut
    out, the suffix right of the cut is twisted and `twisted` goes up by
    one.  Trailing identities are popped; `out` may end empty.  Returns the
    new twist count and whether any slide changed the list.
    """
    if twisted & 1:
        f = _tau_id(f)
    out.append(f)
    touched = False
    w0 = _w0_pid(m)
    for j in range(len(out) - 2, -1, -1):
        a = out[j]
        a2, b2 = _slide_ids(a, out[j + 1])
        if a2 == a:
            break
        touched = True
        if a2 == w0:
            out[j:] = [_tau_id(g) for g in [b2, *out[j + 2 :]]]
            twisted += 1
            break
        out[j], out[j + 1] = a2, b2
    ident = _id_pid(m)
    while out and out[-1] == ident:
        out.pop()
    return twisted, touched


def _finish(m: int, out: list[int], twisted: int) -> tuple[int, tuple[int, ...]]:
    """The raw form of Delta^twisted tau^twisted(out)."""
    if twisted & 1:
        out = [_tau_id(f) for f in out]
    shift, fids = _strip_ids(out, m)
    return (twisted + shift, fids)


def raw_multiply(m: int, a: tuple[int, tuple[int, ...]], b: tuple[int, tuple[int, ...]]):
    """Raw form of the product a b (a first) of two raw forms in B_m.

    Delta^p L Delta^q R = Delta^(p+q) tau^q(L) R, so R's factors are pushed
    onto tau^q(L).  After a push that changes nothing, the rest of R is
    already left-weighted against the list and is appended as it is.
    """
    p, left = a
    q, right = b
    out = [_tau_id(f) for f in left] if q & 1 else list(left)
    twisted = 0
    for idx, f in enumerate(right):
        twisted, touched = _push(m, out, f, twisted)
        if not touched:
            rest = right[idx + 1 :]
            out.extend([_tau_id(g) for g in rest] if twisted & 1 else rest)
            break
    power, fids = _finish(m, out, twisted)
    return (p + q + power, fids)


def raw_inverse(m: int, a: tuple[int, tuple[int, ...]]):
    """Closed-form inverse: (Delta^p A_1...A_k)^-1 = Delta^-(p+k) B_1...B_k
    with B_i the tau^(p+k-i+1)-twist of the right complement of A_{k+1-i}
    (the twist count is the number of Delta carries passing the factor on
    their way to the front).  The result is already left-weighted."""
    p, fids = a
    k = len(fids)
    out = []
    for i in range(1, k + 1):
        c = _rcomp_id(fids[k - i])
        out.append(_tau_id(c) if (p + k - i + 1) % 2 else c)
    return (-(p + k), tuple(out))


def _raw_from_letters(m: int, letters: tuple[int, ...]):
    # sigma_i^-1 = Delta^-1 (Delta sigma_i^-1): the Delta^-1 joins the count.
    out: list[int] = []
    twisted = 0
    for letter in letters:
        if letter > 0:
            twisted, _ = _push(m, out, _gen_pid(m, letter), twisted)
        else:
            twisted, _ = _push(m, out, _neg_pid(m, -letter), twisted - 1)
    return _finish(m, out, twisted)


@lru_cache(maxsize=200_000)
def raw_of_word(m: int, letters: tuple[int, ...]):
    return _raw_from_letters(m, letters)


@lru_cache(maxsize=None)
def _delta_letters(m: int) -> tuple[int, ...]:
    return delta_word(m).letters


def raw_to_letters(m: int, raw: tuple[int, tuple[int, ...]]) -> tuple[int, ...]:
    p, fids = raw
    letters: list[int] = []
    d = _delta_letters(m)
    if p >= 0:
        letters.extend(d * p)
    else:
        inv_d = tuple(-l for l in reversed(d))
        letters.extend(inv_d * (-p))
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

    def to_word(self) -> BraidWord:
        """Rebuild a braid word: Delta^delta_power then the factor words."""
        letters = raw_to_letters(self.strands, nf_to_raw(self))
        return BraidWord(self.strands, free_reduce(letters))


def nf_from_raw(m: int, raw: tuple[int, tuple[int, ...]]) -> NormalForm:
    p, fids = raw
    return NormalForm(m, p, tuple(Permutation(_PERM_TUPLES[f]) for f in fids))


def nf_to_raw(nf: NormalForm) -> tuple[int, tuple[int, ...]]:
    return (nf.delta_power, tuple(_pid(p.images) for p in nf.canonical_factors))


def normal_form(w: BraidWord) -> NormalForm:
    """Left-greedy canonical form; equal braids yield identical results."""
    return nf_from_raw(w.strands, raw_of_word(w.strands, free_reduce(w.letters)))


def words_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Solve the word problem: do the two words denote the same braid?"""
    if w1.strands != w2.strands:
        raise BraidError(
            f"strand-count mismatch: {w1.strands} vs {w2.strands}"
        )
    return raw_of_word(w1.strands, free_reduce(w1.letters)) == raw_of_word(
        w2.strands, free_reduce(w2.letters)
    )


# --- canonical-form arithmetic ---------------------------------------------


def _check_nf_strands(a: NormalForm, b: NormalForm) -> None:
    if a.strands != b.strands:
        raise BraidError(
            f"strand-count mismatch: {a.strands} vs {b.strands}"
        )


def nf_identity(m: int) -> NormalForm:
    return NormalForm(m, 0, ())


def nf_multiply(a: NormalForm, b: NormalForm) -> NormalForm:
    """Canonical form of the product (a first, then b); costs one junction
    re-weighting rather than a renormalization from letters."""
    _check_nf_strands(a, b)
    return nf_from_raw(
        a.strands, raw_multiply(a.strands, nf_to_raw(a), nf_to_raw(b))
    )


def nf_product(first: NormalForm, *rest: NormalForm) -> NormalForm:
    m = first.strands
    raw = nf_to_raw(first)
    for nf in rest:
        _check_nf_strands(first, nf)
        raw = raw_multiply(m, raw, nf_to_raw(nf))
    return nf_from_raw(m, raw)


def nf_inverse(a: NormalForm) -> NormalForm:
    """Canonical form of the inverse, in closed form (no renormalization)."""
    return nf_from_raw(a.strands, raw_inverse(a.strands, nf_to_raw(a)))


def nf_power(a: NormalForm, e: int) -> NormalForm:
    m = a.strands
    raw = nf_to_raw(a)
    if e < 0:
        raw = raw_inverse(m, raw)
        e = -e
    out = RAW_IDENTITY
    for _ in range(e):
        out = raw_multiply(m, out, raw)
    return nf_from_raw(m, out)


def nf_conjugate(w: NormalForm, c: NormalForm) -> NormalForm:
    """Canonical form of c w c^-1."""
    _check_nf_strands(w, c)
    m = w.strands
    rc = nf_to_raw(c)
    raw = raw_multiply(m, raw_multiply(m, rc, nf_to_raw(w)), raw_inverse(m, rc))
    return nf_from_raw(m, raw)
