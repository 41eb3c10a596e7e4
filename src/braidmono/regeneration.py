"""
Regeneration of a line-arrangement factorization into branch-curve factors.

A curve that degenerates to n lines has a branch curve of twice the degree:
each fiber point j of the degenerate picture splits into the pair
(2j-1, 2j) of fiber points upstairs.  Factors of the degenerate
factorization in B_n are rewritten into factors in B_{2n} by three local
rules keyed on the singularity class (= factor exponent); `apply_rule`
applies one rule to one factor, `regenerate` one rule per factor:

* Rule I   (branch point, exponent 1): one branch point becomes two;
  degree 1 -> 2.
* Rule II  (node, exponent 2): one node becomes four nodes, one for each
  choice of doubled endpoints; degree 2 -> 8.
* Rule III (tangency, exponent 4): one tangency becomes three cusps, a
  single cusp factor together with its two conjugates by the short twist
  joining the doubled pair; degree 4 -> 9.

Which of the doubled endpoints (j versus j') each output uses is a
convention; the counts and degrees above are forced, but the product is
not: two conventions can give different products, and Hurwitz moves keep
the product, so their outputs need not be Hurwitz-equivalent.
Conjugators are transported by the 2-cabling homomorphism, `cable_word`,
that sends sigma_k to the positive crossing of the pairs (2k-1, 2k) and
(2k+1, 2k+2).
A row carries the 2-cable of its factor's conjugator form and spells its
word only when read, so `regenerate` builds no braid word.

The three rules and the pass-through are one table, `_RULES`: a row per
output factor gives its endpoint convention, its exponent and the power of
the short twist Z_{jj'} that conjugates it, so a convention is a one-row
change.

The rewritten factorization is generally not yet a full-twist
factorization: branch points that regenerate near infinity are invisible
to the local rules.  `degree_audit` reports the exact deficit against
deg Delta^2 = 2n(2n-1), and `complete_deficit` optionally searches (within
an explicit budget) for unconjugated half-twist factors that close the
product back to Delta^2.
"""

from __future__ import annotations

import dataclasses
import enum
from operator import attrgetter
from typing import Mapping

from .braid import BraidWord, HalfTwist, compose, free_reduce, half_twist_word
from .factorization import (
    BlockFactor,
    Factor,
    Factorization,
    StructuredFactor,
    _FULL_TWIST_RAW,
    _conjugator_raw,
    _conjugator_raws,
    _product_raw,
    _record,
    is_delta2_factorization,
)
from .garside import (
    RAW_IDENTITY,
    raw_cable,
    raw_inverse,
    raw_multiply,
    raw_of_word,
    raw_permutation,
)


class RegenerationError(ValueError):
    """Factor cannot be regenerated as requested."""


class Rule(enum.Enum):
    BRANCH = "I"
    NODE = "II"
    TANGENCY = "III"
    PASS = "pass"


def cable_word(w: BraidWord) -> BraidWord:
    """The 2-cable of a word in B_n, a word in B_{2n} under the index
    doubling j -> (2j-1, 2j): sigma_k maps to the positive pair crossing
    sigma_{2k} sigma_{2k+1} sigma_{2k-1} sigma_{2k}."""
    if w.strands < 2:
        raise RegenerationError("doubling needs at least 2 strands")
    letters: list[int] = []
    for letter in w.letters:
        k = abs(letter)
        image = (2 * k, 2 * k + 1, 2 * k - 1, 2 * k)
        if letter > 0:
            letters.extend(image)
        else:
            letters.extend(-i for i in reversed(image))
    return BraidWord(2 * w.strands, free_reduce(letters))


def double_halftwist(
    h: HalfTwist, low_prime: bool = False, high_prime: bool = False
) -> HalfTwist:
    """A half-twist between chosen doubled endpoints: (i, j) maps to one of
    Z_{ij}, Z_{i'j}, Z_{ij'}, Z_{i'j'} where i' = 2i and i = 2i-1."""
    lo = 2 * h.low if low_prime else 2 * h.low - 1
    hi = 2 * h.high if high_prime else 2 * h.high - 1
    return HalfTwist(2 * h.strands, lo, hi)


# The rules as one table: Rule -> (the exponent it applies to, its rows).
# A row is (low primed, high primed, output exponent, power -1, 0 or 1 of
# the short twist Z_{jj'} appended to the cabled conjugator), one output
# factor per row, in order; a first row has no twist, since the other rows
# read its word.  Rule.PASS keeps the factor's own exponent.
_RULES = {
    Rule.BRANCH: (1, ((False, True, 1, 0), (True, False, 1, 0))),
    Rule.NODE: (2, (
        (True, True, 2, 0), (False, True, 2, 0), (True, False, 2, 0), (False, False, 2, 0),
    )),
    Rule.TANGENCY: (4, ((False, True, 3, 0), (False, True, 3, 1), (False, True, 3, -1))),
    Rule.PASS: (None, ((False, False, None, 0),)),
}

# The `regenerate` header line naming the rows above; i' = 2i, i = 2i - 1.
CONVENTION = (
    "endpoint convention: rule I -> (i,j'),(i',j); "
    "rule II -> (i'j')(ij')(i'j)(ij); rule III -> Z^3_(ij') and its "
    "Z_(jj')-conjugates"
)

_RULE_BY_EXPONENT = {exp: rule for rule, (exp, _) in _RULES.items() if exp}


def _unblocked(factor: Factor) -> StructuredFactor:
    if isinstance(factor, BlockFactor):
        raise RegenerationError(
            "block factors must be expanded into node factors before "
            "regeneration (expand_blocks)"
        )
    return factor


def _cable(factor: StructuredFactor) -> BraidWord:
    return cable_word(factor.conjugator)


def _twisted(source: tuple[StructuredFactor, int]) -> BraidWord:
    first, letter = source
    return compose(first.conjugator, BraidWord(first.strands, (letter,)))


def apply_rule(rule: Rule, factor: Factor) -> tuple[StructuredFactor, ...]:
    """The rule's rows applied to one factor of base Z_{ij}:

    * Rule.BRANCH (exponent 1): one branch point becomes two,
      [Z_{ij'}, Z_{i'j}]; degree 1 -> 2.
    * Rule.NODE (exponent 2): one node becomes four,
      [Z^2_{i'j'}, Z^2_{ij'}, Z^2_{i'j}, Z^2_{ij}]; degree 2 -> 8.
    * Rule.TANGENCY (exponent 4): one tangency becomes three cusps, Z^3_{ij'}
      and its conjugates by Z_{jj'}^{+1} and Z_{jj'}^{-1}; degree 4 -> 9.
    * Rule.PASS (any exponent): the factor on the unprimed endpoints, Z^e_{ij}.

    A row carries its conjugator's form: the cable of the factor's, times
    Z_{jj'}^{+-1} in a twist row.  On first read the first row spells the
    cable of the factor's word, a plain row reads that word object, and a
    twist row appends its letter to it."""
    exponent, rows = _RULES[rule]
    if exponent is not None and factor.exponent != exponent:
        raise RegenerationError(
            f"rule {rule.value} applies to exponent {exponent}, got {factor.exponent}"
        )
    n = _unblocked(factor).strands
    m, short = 2 * n, 2 * factor.base.high - 1  # Z_{jj'} is the generator joining j and j'
    raw = raw_cable(n, _conjugator_raw(factor))
    out: list[StructuredFactor] = []
    for low_prime, high_prime, out_exponent, twist in rows:
        form, spelling = raw, (attrgetter("conjugator"), out[0]) if out else (_cable, factor)
        if twist:
            form = raw_multiply(m, raw, raw_of_word(m, (twist * short,)))
            spelling = (_twisted, (out[0], twist * short))
        out.append(_record(StructuredFactor, m, form, spelling, {
            "base": double_halftwist(factor.base, low_prime, high_prime),
            "exponent": out_exponent or factor.exponent}))
    return tuple(out)


def regenerate(
    fact: Factorization, rules: Mapping[int, Rule] | None = None
) -> Factorization:
    """Apply a regeneration rule to every factor, in order.

    `rules` assigns a rule per factor index (0-based); by default each
    factor gets the rule matching its exponent (1 -> I, 2 -> II, 4 -> III).
    A factor whose exponent has no rule must be assigned Rule.PASS
    explicitly, otherwise the input is rejected, as is a rule for an index
    with no factor and, whatever its rule, a block factor (expand blocks
    first).
    """
    n = fact.strands
    if n < 2:
        raise RegenerationError("regeneration needs at least 2 strands")
    rules = rules or {}
    count = len(fact.factors)
    stray = sorted(idx for idx in rules if not 0 <= idx < count)
    if stray:
        raise RegenerationError(
            f"rule for factor {stray[0]}, but the factorization has only {count} factor(s)"
        )
    _conjugator_raws(n, fact.factors)
    out: list[Factor] = []
    for idx, factor in enumerate(fact.factors):
        exp = _unblocked(factor).exponent
        rule = rules.get(idx) or _RULE_BY_EXPONENT.get(exp)
        if rule is None:
            raise RegenerationError(
                f"factor {idx} has no applicable rule (exponent {exp}); "
                "assign Rule.PASS explicitly"
            )
        out.extend(apply_rule(rule, factor))
    return Factorization(2 * n, tuple(out))


@dataclasses.dataclass(frozen=True)
class AuditReport:
    """Degree bookkeeping for a regenerated factorization in B_{2n}."""

    achieved_degree: int
    target_degree: int
    deficit: int


def degree_audit(fact: Factorization) -> AuditReport:
    """Compare the factorization degree with deg Delta^2 = m(m-1); the
    deficit counts the exponent-1 branch factors still missing (they live
    near infinity, outside the local rules' reach)."""
    achieved = fact.degree()
    target = fact.strands * (fact.strands - 1)
    if achieved > target:
        raise RegenerationError(
            f"degree {achieved} exceeds the full-twist degree {target}"
        )
    return AuditReport(achieved, target, target - achieved)


@dataclasses.dataclass(frozen=True)
class CompletionResult:
    completed: Factorization | None
    tried: int
    exhausted: bool
    # True when the defect's infimum rules every completion out unsearched
    ruled_out: bool = False


def complete_deficit(fact: Factorization, budget: int = 10_000) -> CompletionResult:
    """Search for missing branch-point factors closing the product to Delta^2.

    Appends deficit-many exponent-1 unconjugated half-twist factors at the
    end and tries every base assignment, pruned by the necessary condition
    that the remaining slots can still fix the product's permutation
    (enough transpositions, matching parity).  `budget` caps the number of
    complete placements tested; the search is deliberately not a
    completeness claim, conjugated candidates are out of its range.

    Each candidate is a positive word times an inverted simple element, so
    its Garside infimum is at least -1, and a product of deficit-many
    candidates has infimum at least -deficit.  A defect below that bound
    cannot be filled: the result is then `ruled_out`, with no search.
    """
    report = degree_audit(fact)
    m = fact.strands
    if report.deficit == 0:
        done = is_delta2_factorization(fact)
        return CompletionResult(fact if done else None, 0, True)

    # The appended factors must multiply to defect = product^-1 Delta^2.
    defect = raw_multiply(m, raw_inverse(m, _product_raw(fact)), _FULL_TWIST_RAW)
    if defect[0] < -report.deficit:
        return CompletionResult(None, 0, True, ruled_out=True)

    candidates = [
        HalfTwist(m, a, b) for a in range(1, m) for b in range(a + 1, m + 1)
    ]
    cand_inv = {
        h: raw_inverse(m, raw_of_word(m, half_twist_word(h).letters)) for h in candidates
    }

    def transpositions_needed(raw) -> int:
        return m - len(raw_permutation(m, raw).cycle_type())

    tried = 0
    exhausted = True
    chosen: list[HalfTwist] = []

    def search(remaining, slots: int) -> bool:
        nonlocal tried, exhausted
        if slots == 0:
            tried += 1
            return remaining == RAW_IDENTITY
        need = transpositions_needed(remaining)
        if need > slots or (slots - need) % 2 != 0:
            return False
        for h in candidates:
            if tried >= budget:
                exhausted = False
                return False
            chosen.append(h)
            if search(raw_multiply(m, cand_inv[h], remaining), slots - 1):
                return True
            chosen.pop()
        return False

    found = search(defect, report.deficit)
    if found:
        extra = tuple(
            StructuredFactor(BraidWord.identity(m), h, 1) for h in chosen
        )
        return CompletionResult(
            Factorization(m, fact.factors + extra), tried, exhausted
        )
    return CompletionResult(None, tried, exhausted)
