"""The single-push Garside kernel against a reference copy of the two
normalizations it replaced: identical raw forms for words and for
products, including products that cancel."""

import pytest

import braidmono.garside as garside
from conftest import random_word

# --- reference kernel: a carry pass plus a comb for letters, a fixpoint
# with a suspects stack for products ---------------------------------------


def _ref_comb_back(factors, i):
    for j in range(i, -1, -1):
        a, b = factors[j], factors[j + 1]
        a2, b2 = garside._slide_ids(a, b)
        if a2 == a:
            return
        factors[j], factors[j + 1] = a2, b2


def _ref_merge_ids(m, left, right):
    if not left:
        return 0, right
    if not right:
        return 0, left
    ident, w0, _, _ = garside._strands(m)
    out = list(left)
    pend = 0
    for idx, r in enumerate(right):
        rf = garside._tau_id(r) if pend & 1 else r
        out.append(rf)
        suspects = [len(out) - 2]
        touched = False
        while suspects:
            j = suspects.pop()
            if j < 0 or j + 1 >= len(out):
                continue
            a, b = out[j], out[j + 1]
            a2, b2 = garside._slide_ids(a, b)
            if a2 == a:
                continue
            touched = True
            if a2 == w0:
                pend += 1
                out[j] = b2
                del out[j + 1]
                suspects = [s - 1 if s > j else s for s in suspects]
                for t in range(j, len(out)):
                    out[t] = garside._tau_id(out[t])
                suspects.append(j)
                suspects.append(j - 1)
                continue
            if b2 == ident:
                out[j] = a2
                del out[j + 1]
                suspects = [s - 1 if s > j else s for s in suspects]
                suspects.append(j)
                suspects.append(j - 1)
                continue
            out[j], out[j + 1] = a2, b2
            suspects.append(j + 1)
            suspects.append(j - 1)
        if not touched:
            tail = right[idx + 1 :]
            if pend & 1:
                out.extend(garside._tau_id(f) for f in tail)
            else:
                out.extend(tail)
            break
    if pend & 1:
        out = [garside._tau_id(f) for f in out]
    return pend, out


def ref_raw_multiply(m, a, b):
    p, left = a
    q, right = b
    if q % 2:
        left_list = [garside._tau_id(f) for f in left]
    else:
        left_list = list(left)
    carry, merged = _ref_merge_ids(m, left_list, list(right))
    shift, fids = garside._strip_ids(merged, m)
    return (p + q + carry + shift, fids)


def ref_raw_from_letters(m, letters):
    ident, _, gens, negs = garside._strands(m)
    factors = []
    delta_pows = []
    for letter in letters:
        if letter > 0:
            factors.append(gens[letter])
            delta_pows.append(0)
        else:
            factors.append(negs[-letter])
            delta_pows.append(-1)
    acc = 0
    for idx in range(len(factors) - 1, -1, -1):
        if acc % 2:
            factors[idx] = garside._tau_id(factors[idx])
        acc += delta_pows[idx]
    out = []
    for f in factors:
        if f == ident:
            continue
        out.append(f)
        _ref_comb_back(out, len(out) - 2)
        while out[-1] == ident:
            out.pop()
    shift, fids = garside._strip_ids(out, m)
    return (acc + shift, fids)


# --- the fuzz ---------------------------------------------------------------


def inverse_letters(letters):
    return tuple(-x for x in reversed(letters))


@pytest.mark.parametrize("m", range(2, 10))
def test_words_match_reference(rng, m):
    for _ in range(60):
        w = random_word(rng, m, 60)
        assert garside.raw_of_word(m, w.letters) == ref_raw_from_letters(
            m, w.letters
        )


@pytest.mark.parametrize("m", range(2, 10))
def test_products_match_reference(rng, m):
    """Multi-factor operands, plus shapes that cancel across the junction
    in full or in part: x x^-1, (a b) a^-1, b^-1 (a b), (a b) b^-1 and
    a^-1 (a b)."""
    for _ in range(30):
        a = random_word(rng, m, 30).letters
        b = random_word(rng, m, 30).letters
        pairs = [
            (a, b),
            (a, inverse_letters(a)),
            (a + b, inverse_letters(a)),
            (inverse_letters(b), a + b),
            (a + b, inverse_letters(b)),
            (inverse_letters(a), a + b),
        ]
        for x, y in pairs:
            rx = ref_raw_from_letters(m, x)
            ry = ref_raw_from_letters(m, y)
            got = garside.raw_multiply(m, rx, ry)
            assert got == ref_raw_multiply(m, rx, ry)
            assert got == ref_raw_from_letters(m, x + y)
